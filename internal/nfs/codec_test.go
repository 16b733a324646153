package nfs

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"procmig/internal/errno"
	"procmig/internal/vfs"
)

// gobBytes is the reference encoding: a fresh gob.Encoder per value, as
// the wire format is defined.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkCodec asserts the codec writes gob's bytes for v and decodes them
// to what gob decodes.
func checkCodec[T any](t testing.TB, v *T, encode func(*T) []byte, decode func([]byte, *T) error) {
	t.Helper()
	got := encode(v)
	if want := gobBytes(t, v); !bytes.Equal(got, want) {
		t.Fatalf("encoding %+v\n got %x\nwant %x", v, got, want)
	}
	var mine, theirs T
	if err := decode(got, &mine); err != nil {
		t.Fatalf("decoding its own encoding: %v", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&theirs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mine, theirs) {
		t.Fatalf("codec decodes %+v, gob decodes %+v", mine, theirs)
	}
}

// checkRawDecode feeds arbitrary bytes to both decoders, as a request and
// as a response. The codec may reject input gob would take (it accepts
// only its own layout), but what it accepts gob must decode to the same
// value.
func checkRawDecode(t testing.TB, raw []byte) {
	t.Helper()
	checkRaw(t, raw, decodeRequest)
	checkRaw(t, raw, decodeResponse)
}

func checkRaw[T any](t testing.TB, raw []byte, decode func([]byte, *T) error) {
	t.Helper()
	var mine, theirs T
	if decode(raw, &mine) != nil {
		return
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&theirs); err != nil {
		t.Fatalf("codec accepted %x as %T, which gob rejects: %v", raw, mine, err)
	}
	if !reflect.DeepEqual(mine, theirs) {
		t.Fatalf("%x: codec decodes %+v, gob decodes %+v", raw, mine, theirs)
	}
}

// randInt draws from a mix of zero, small, negative and extreme values, so
// every gob integer width and sign is hit.
func randInt(r *rand.Rand) int64 {
	switch r.IntN(6) {
	case 0:
		return 0
	case 1:
		return int64(r.IntN(200)) - 100
	case 2:
		return math.MinInt64 + int64(r.IntN(3))
	case 3:
		return math.MaxInt64 - int64(r.IntN(3))
	default:
		return int64(r.Uint64()) >> r.IntN(64)
	}
}

func randBytes(r *rand.Rand) []byte {
	switch r.IntN(5) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return make([]byte, 8192)
	}
	b := make([]byte, r.IntN(300))
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

func randString(r *rand.Rand) string {
	b := randBytes(r)
	return string(b[:min(len(b), r.IntN(48))])
}

func randRequest(r *rand.Rand) *request {
	ops := []string{"", "root", "lookup", "read", "write", "readdir", "truncate"}
	return &request{
		Op:    ops[r.IntN(len(ops))],
		Node:  vfs.NodeID(uint64(randInt(r))),
		Node2: vfs.NodeID(uint64(randInt(r))),
		Name:  randString(r),
		Name2: randString(r),
		Mode:  uint16(randInt(r)),
		UID:   int(randInt(r)),
		GID:   int(randInt(r)),
		Dev:   vfs.DevID(randInt(r)),
		Off:   randInt(r),
		Len:   int(randInt(r)),
		Size:  randInt(r),
		Data:  randBytes(r),
	}
}

func randResponse(r *rand.Rand) *response {
	resp := &response{
		Err:  errno.Errno(randInt(r)),
		Node: vfs.NodeID(uint64(randInt(r))),
		Attr: vfs.Attr{
			Type: vfs.NodeType(randInt(r)),
			Mode: uint16(randInt(r)),
			UID:  int(randInt(r)),
			GID:  int(randInt(r)),
			Size: randInt(r),
			Dev:  vfs.DevID(randInt(r)),
		},
		Target: randString(r),
		Data:   randBytes(r),
		N:      int(randInt(r)),
	}
	if r.IntN(4) == 0 {
		resp.Attr = vfs.Attr{}
	}
	if n := r.IntN(6); n > 0 {
		resp.Dirents = make([]vfs.Dirent, n-1)
		for i := range resp.Dirents {
			resp.Dirents[i] = vfs.Dirent{
				Name: randString(r),
				Node: vfs.NodeID(uint64(randInt(r))),
				Type: vfs.NodeType(randInt(r)),
			}
		}
	}
	return resp
}

// TestCodecMatchesGob is the differential check: 10,000 random requests
// and responses, byte-identical to a fresh gob.Encoder and decoding to
// gob's value.
func TestCodecMatchesGob(t *testing.T) {
	r := rand.New(rand.NewPCG(14, 2049))
	for i := 0; i < 10000; i++ {
		checkCodec(t, randRequest(r), encodeRequest, decodeRequest)
		checkCodec(t, randResponse(r), encodeResponse, decodeResponse)
	}
}

// TestCodecRejectsMalformed: every truncation of a valid message is
// rejected, and no single-byte corruption panics or decodes differently
// from gob.
func TestCodecRejectsMalformed(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	msgs := [][]byte{
		encodeRequest(&request{Op: "write", Node: 9, Off: 4096, Data: []byte("payload")}),
		encodeResponse(&response{Node: 3, Attr: vfs.Attr{Type: vfs.TypeFile, Mode: 0o644, Size: 7},
			Dirents: []vfs.Dirent{{Name: "a", Node: 4, Type: vfs.TypeDir}}, Data: []byte("xy"), N: 2}),
	}
	for _, raw := range msgs {
		for n := 0; n < len(raw); n++ {
			var req request
			var resp response
			if decodeRequest(raw[:n], &req) == nil || decodeResponse(raw[:n], &resp) == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", n, len(raw))
			}
		}
		for i := 0; i < 2000; i++ {
			bad := bytes.Clone(raw)
			bad[r.IntN(len(bad))] ^= byte(1 + r.IntN(255))
			checkRawDecode(t, bad)
		}
	}
	// A gob message of another type never decodes.
	other := gobBytes(t, &struct{ Op string }{Op: "read"})
	var req request
	if decodeRequest(other, &req) == nil {
		t.Fatal("foreign gob type decoded as a request")
	}
}

// TestCodecAllocs pins the copies: encoding is one allocation, and a
// decoded write request allocates only its Op string and its Data.
func TestCodecAllocs(t *testing.T) {
	req := &request{Op: "write", Node: 12, Off: 1 << 20, Data: make([]byte, 8192)}
	if n := testing.AllocsPerRun(100, func() { encodeRequest(req) }); n != 1 {
		t.Fatalf("encodeRequest allocates %v times, want 1", n)
	}
	resp := &response{Data: make([]byte, 8192), N: 8192}
	if n := testing.AllocsPerRun(100, func() { encodeResponse(resp) }); n != 1 {
		t.Fatalf("encodeResponse allocates %v times, want 1", n)
	}
	raw := encodeRequest(req)
	if n := testing.AllocsPerRun(100, func() {
		var got request
		if decodeRequest(raw, &got) != nil {
			t.Fatal("decode failed")
		}
	}); n != 2 {
		t.Fatalf("decodeRequest allocates %v times, want 2 (Op and Data)", n)
	}
}

// FuzzNFSCodec differentially checks the codec against encoding/gob: the
// fuzzed fields build a request and a response that must encode to gob's
// exact bytes and decode to gob's values, and the raw input must never
// decode to anything gob would not.
func FuzzNFSCodec(f *testing.F) {
	f.Add(encodeRequest(&request{Op: "write", Node: 5, Data: []byte("abc")}),
		"lookup", uint64(77), int64(-2), uint16(0o755), []byte("name"))
	f.Add(encodeResponse(&response{Attr: vfs.Attr{Size: 300}, Dirents: []vfs.Dirent{{Name: "f", Node: 2}}}),
		"", uint64(1<<63), int64(math.MinInt64), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, raw []byte, op string, node uint64, n int64, mode uint16, data []byte) {
		req := &request{
			Op: op, Node: vfs.NodeID(node), Node2: vfs.NodeID(node >> 7), Name: string(data),
			Mode: mode, UID: int(n), GID: int(-n), Dev: vfs.DevID(n >> 3),
			Off: n * 3, Len: int(mode), Size: -n, Data: data,
		}
		checkCodec(t, req, encodeRequest, decodeRequest)
		resp := &response{
			Err: errno.Errno(n), Node: vfs.NodeID(node), Target: op, Data: data, N: int(n >> 1),
			Attr: vfs.Attr{Type: vfs.NodeType(mode), Mode: mode, UID: int(n), Size: int64(node)},
		}
		if len(data) > 0 {
			resp.Dirents = []vfs.Dirent{{Name: op, Node: vfs.NodeID(node)}, {Type: vfs.NodeType(n)}}
		}
		checkCodec(t, resp, encodeResponse, decodeResponse)
		checkRawDecode(t, raw)
	})
}
