package experiments

import (
	"fmt"

	"procmig/internal/core"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// --- A9: wire-efficiency ablation ---------------------------------------------
//
// A9 measures what the PR 4 wire encodings buy on the streaming path:
// the same pre-copy migration — identical image, identical seeded dirty
// schedule, identical round count — run three times, once per WireMode,
// over a real netsim stream. Because the only variable is the page
// encoding, any difference in bytes-on-wire or freeze time is the
// encoding's doing, and the restored images must be bit-identical.
//
// The driver is synthetic (a vm.CPU driven directly rather than a hosted
// program) so page-content entropy and dirty rate are exact knobs, not
// emergent properties of an assembly workload.

// A9 geometry: a 64 KiB data segment (64 pages) behind 4 KiB of text,
// with a small live stack.
const (
	a9TextLen  = 4 << 10
	a9DataLen  = 64 << 10
	a9StackLen = 512
	a9Rounds   = 4 // pre-copy round cap; the decaying schedule stops earlier
	a9Port     = 901
	a9PID      = 42
)

// A9Config is one cell of the sweep: how compressible the page contents
// are and what fraction of the image is re-dirtied between copy rounds.
type A9Config struct {
	Entropy  string // "zero", "text" (structured), "random"
	DirtyPct int    // % of data pages mutated before each pre-copy round
	Seed     uint64
}

// A9Run is one (config, mode) measurement.
type A9Run struct {
	Mode       core.WireMode
	WireBytes  int64        // payload bytes actually shipped
	SavedBytes int64        // bytes the encoding elided vs raw records
	Freeze     sim.Duration // final round + meta + commit + close
	Rounds     int          // SendRound calls, freeze round included

	PagesRaw, PagesZero, PagesRef, PagesLZ int

	// ImageHash fingerprints the restored image (a.out ++ stack) the
	// destination spooled — equal across modes or the encodings corrupted
	// something.
	ImageHash uint64
}

// A9Point is one config measured under all three wire modes.
type A9Point struct {
	Config A9Config
	Raw    A9Run
	Elide  A9Run
	LZ     A9Run
}

// ElidableFrac is the fraction of shipped pages the elide run turned into
// zero or ref records — the test's gate for demanding a strict byte win.
func (p *A9Point) ElidableFrac() float64 {
	n := p.Elide.PagesRaw + p.Elide.PagesZero + p.Elide.PagesRef + p.Elide.PagesLZ
	if n == 0 {
		return 0
	}
	return float64(p.Elide.PagesZero+p.Elide.PagesRef) / float64(n)
}

// A9Configs is the published sweep; tests and the benchmark table share it.
func A9Configs() []A9Config {
	var out []A9Config
	for _, entropy := range []string{"zero", "text", "random"} {
		for _, pct := range []int{10, 50} {
			out = append(out, A9Config{Entropy: entropy, DirtyPct: pct, Seed: 9})
		}
	}
	return out
}

// A9Wire runs the full sweep.
func A9Wire() ([]*A9Point, error) {
	var out []*A9Point
	for _, cfg := range A9Configs() {
		pt, err := A9Measure(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// A9Measure runs one config under raw, elide and elide+LZ.
func A9Measure(cfg A9Config) (*A9Point, error) {
	pt := &A9Point{Config: cfg}
	for _, mode := range []core.WireMode{core.WireRaw, core.WireElide, core.WireElideLZ} {
		run, err := a9Transfer(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("a9 %s/%d%% %s: %w", cfg.Entropy, cfg.DirtyPct, mode, err)
		}
		switch mode {
		case core.WireRaw:
			pt.Raw = *run
		case core.WireElide:
			pt.Elide = *run
		case core.WireElideLZ:
			pt.LZ = *run
		}
	}
	return pt, nil
}

// splitmix64 is the experiment's seeded PRNG (same generator the sim
// package uses): deterministic per seed, no global state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// a9Fill deterministically fills the initial data segment for one entropy
// class: "zero" leaves every page zero, "text" writes structured low-
// entropy bytes, "random" PRNG bytes that do not compress.
func a9Fill(data []byte, entropy string, rng *uint64) {
	switch entropy {
	case "zero":
	case "text":
		for i := range data {
			data[i] = byte(i >> 4)
		}
	case "random":
		for i := range data {
			data[i] = byte(splitmix64(rng))
		}
	}
}

// imageSink is the destination of one synthetic transfer (A9's, and
// A10's alloc measurement): a plain image assembler whose Done spools the
// dump files in memory.
type imageSink struct {
	asm         *core.ImageAssembler
	aout, stack []byte
	err         error
}

func (s *imageSink) Chunk(_ *sim.Task, rec []byte) {
	if s.err == nil {
		s.err = s.asm.Apply(rec)
	}
}

func (s *imageSink) Done(_ *sim.Task) []byte {
	if s.err != nil {
		return core.EncodeStreamStatus(-1)
	}
	aout, _, stack, err := s.asm.Spool()
	if err != nil {
		s.err = err
		return core.EncodeStreamStatus(-1)
	}
	s.aout, s.stack = aout, stack
	return core.EncodeStreamStatus(0)
}

// a9Transfer runs one pre-copy transfer end to end over a two-host netsim
// network and reports the run's accounting. Everything varying between
// calls is derived from cfg.Seed, so a (cfg, mode) pair always produces
// the same numbers.
func a9Transfer(cfg A9Config, mode core.WireMode) (*A9Run, error) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 200*sim.Microsecond, 1*sim.Microsecond)
	src := net.AddHost("a9src")
	dst := net.AddHost("a9dst")

	var sink *imageSink
	if err := dst.ListenStream(a9Port, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		asm, err := core.NewImageAssembler(hello)
		if err != nil {
			return nil, err
		}
		sink = &imageSink{asm: asm}
		return sink, nil
	}); err != nil {
		return nil, err
	}

	// The image. Text is fixed structured bytes; data follows the entropy
	// knob; the stack is a small live window of patterned bytes.
	rng := cfg.Seed
	text := make([]byte, a9TextLen)
	for i := range text {
		text[i] = byte(i % 251)
	}
	data := make([]byte, a9DataLen)
	a9Fill(data, cfg.Entropy, &rng)
	cpu := vm.New(text, data, vm.ISA1)
	stack := make([]byte, a9StackLen)
	for i := range stack {
		stack[i] = byte(0x80 ^ i)
	}
	cpu.SetStackImage(stack)
	cpu.SetDirtyTracking(true)

	costs := kernel.DefaultCosts()
	dataBase := vm.DataBase(len(text))
	numPages := a9DataLen / vm.PageSize

	// mutate re-dirties n distinct pages: three quarters of the writes
	// store a fresh PRNG value (real change), one quarter rewrites what is
	// already there (dirty bit set, content unchanged — the case the hash
	// dedup exists for).
	mutate := func(n int) {
		for i := 0; i < n; i++ {
			pg := uint64(splitmix64(&rng)) % uint64(numPages)
			addr := dataBase + uint32(pg)*vm.PageSize
			if splitmix64(&rng)%4 == 0 {
				v, _ := cpu.ReadU32(addr)
				cpu.WriteU32(addr, v)
			} else {
				cpu.WriteU32(addr, uint32(splitmix64(&rng)))
			}
		}
	}

	run := &A9Run{Mode: mode}
	var fail error
	eng.Go("a9", func(tk *sim.Task) {
		hello := &core.StreamHello{
			PID:     a9PID,
			ISA:     vm.ISA1,
			TextLen: uint32(len(text)),
			DataLen: uint32(len(data)),
			Txn:     1,
			Source:  src.Name(),
		}
		stream, err := src.OpenStream(tk, dst.Name(), a9Port, hello.Encode())
		if err != nil {
			fail = err
			return
		}
		sess := &core.StreamSession{Stream: stream, Txn: 1, Wire: mode}
		charge := func(d sim.Duration) { tk.Sleep(d) }

		// Pre-copy: a decaying dirty schedule (half the previous round's
		// mutations each time), so the transfer converges like a real
		// workload going idle, with an adaptive stop once the remaining
		// delta is tiny. Mutation count and stop decision depend only on
		// the seed and the round index, never the wire mode, so every mode
		// sees the identical schedule and converges in the same round.
		for r := 0; r < a9Rounds; r++ {
			if err := sess.SendRound(tk, cpu, costs, charge); err != nil {
				fail = err
				return
			}
			mutate(numPages * cfg.DirtyPct / 100 >> r)
			if cpu.DirtyCount() <= 2 {
				break
			}
		}

		// Freeze: no more mutations; ship the last delta and commit.
		t0 := tk.Now()
		if err := sess.SendRound(tk, cpu, costs, charge); err != nil {
			fail = err
			return
		}
		status, err := sess.CloseSynthetic(tk, cpu, a9PID, costs, charge)
		if err != nil {
			fail = err
			return
		}
		if status != 0 {
			fail = fmt.Errorf("destination refused the image: status %d (%v)", status, sink.err)
			return
		}
		run.Freeze = sim.Duration(tk.Now() - t0)
		st := sess.Stats()
		run.WireBytes, run.SavedBytes, run.Rounds = st.WireBytes, st.SavedBytes, st.Rounds
		run.PagesRaw, run.PagesZero = st.PagesRaw, st.PagesZero
		run.PagesRef, run.PagesLZ = st.PagesRef, st.PagesLZ
		run.ImageHash = vm.HashPage(append(append([]byte(nil), sink.aout...), sink.stack...))
	})
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return run, fail
}
