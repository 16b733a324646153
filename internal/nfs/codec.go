package nfs

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"procmig/internal/errno"
	"procmig/internal/vfs"
)

// The NFS wire format is gob: a request or response travels as exactly the
// bytes a fresh gob.Encoder writes for it, type definitions first and the
// value last. Those bytes set the simulated transfer time, so they must not
// change; but a gob.Encoder/Decoder per call recompiles the types and
// copies Data four times. So the codec writes and parses the value message
// by hand, and takes the type-definition prefix and type id from
// encoding/gob itself, once per type.
//
// gob type ids are process-global and handed out in first-use order, and
// they appear in the bytes. A type is therefore learned on its first
// encode, the moment gob itself would have registered it; a decode never
// registers one, it rejects input until the type has been encoded once.

// errMalformed reports input the codec cannot parse.
var errMalformed = errors.New("nfs: malformed message")

// gobLayout is what a fresh gob.Encoder writes around a value of one type.
type gobLayout struct {
	prefix []byte // the type-definition messages, byte for byte
	id     []byte // the value message's type id, gob-encoded
}

// wireType learns a type's layout on first use.
type wireType struct {
	zero   any // a pointer to the type's zero value
	once   sync.Once
	layout atomic.Pointer[gobLayout]
}

var (
	requestType  = wireType{zero: &request{}}
	responseType = wireType{zero: &response{}}
)

// forEncode returns the layout, learning it from encoding/gob if this is
// the first encode of the type.
func (w *wireType) forEncode() *gobLayout {
	w.once.Do(w.learn)
	return w.layout.Load()
}

// forDecode returns the layout, or nil if the type was never encoded.
func (w *wireType) forDecode() *gobLayout { return w.layout.Load() }

func (w *wireType) learn() {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w.zero); err != nil {
		panic("nfs: learning gob layout: " + err.Error())
	}
	raw := buf.Bytes()
	// Walk the messages; the last one is the value, led by its type id.
	var last int
	for r := (reader{b: raw}); len(r.b) > 0; {
		last = len(raw) - len(r.b)
		r.next()
		if r.bad {
			panic("nfs: learning gob layout: unparsable gob stream")
		}
	}
	r := reader{b: raw[last:]}
	r.uint()
	body := r.b
	r.int()
	w.layout.Store(&gobLayout{
		prefix: raw[:last:last],
		id:     body[:len(body)-len(r.b)],
	})
}

// maxUintLen is the longest gob uint: a count byte and eight bytes.
const maxUintLen = 9

// encodeRequest returns req's gob encoding.
func encodeRequest(req *request) []byte {
	l := requestType.forEncode()
	bound := 13*(1+2*maxUintLen) + len(req.Op) + len(req.Name) + len(req.Name2) + len(req.Data)
	b, head := l.open(bound)
	f := fields{b: b, last: -1}
	f.str(0, req.Op)
	f.uint(1, uint64(req.Node))
	f.uint(2, uint64(req.Node2))
	f.str(3, req.Name)
	f.str(4, req.Name2)
	f.uint(5, uint64(req.Mode))
	f.int(6, int64(req.UID))
	f.int(7, int64(req.GID))
	f.int(8, int64(req.Dev))
	f.int(9, req.Off)
	f.int(10, int64(req.Len))
	f.int(11, req.Size)
	f.bytes(12, req.Data)
	return l.seal(f.end(), head)
}

// encodeResponse returns resp's gob encoding.
func encodeResponse(resp *response) []byte {
	l := responseType.forEncode()
	bound := 14*(1+2*maxUintLen) + len(resp.Target) + len(resp.Data)
	for i := range resp.Dirents {
		bound += 4*(1+maxUintLen) + len(resp.Dirents[i].Name)
	}
	b, head := l.open(bound)
	f := fields{b: b, last: -1}
	f.int(0, int64(resp.Err))
	f.uint(1, uint64(resp.Node))
	// gob sends a struct-typed field even when it is zero.
	f.at(2)
	a := fields{b: f.b, last: -1}
	a.int(0, int64(resp.Attr.Type))
	a.uint(1, uint64(resp.Attr.Mode))
	a.int(2, int64(resp.Attr.UID))
	a.int(3, int64(resp.Attr.GID))
	a.int(4, resp.Attr.Size)
	a.int(5, int64(resp.Attr.Dev))
	f.b = a.end()
	f.str(3, resp.Target)
	if len(resp.Dirents) > 0 {
		f.at(4)
		f.b = appendUint(f.b, uint64(len(resp.Dirents)))
		for i := range resp.Dirents {
			d := &resp.Dirents[i]
			e := fields{b: f.b, last: -1}
			e.str(0, d.Name)
			e.uint(1, uint64(d.Node))
			e.int(2, int64(d.Type))
			f.b = e.end()
		}
	}
	f.bytes(5, resp.Data)
	f.int(6, int64(resp.N))
	return l.seal(f.end(), head)
}

// open allocates the whole encoding once: room for the prefix and the
// value message's length, then the type id, with bound bytes to spare for
// the value. It returns the buffer and where the length slot ends.
func (l *gobLayout) open(bound int) ([]byte, int) {
	head := len(l.prefix) + maxUintLen
	b := make([]byte, head, head+len(l.id)+bound)
	return append(b, l.id...), head
}

// seal writes the value message's length and the prefix right-aligned in
// front of the message and returns the finished encoding.
func (l *gobLayout) seal(b []byte, head int) []byte {
	var n [maxUintLen]byte
	count := appendUint(n[:0], uint64(len(b)-head))
	start := head - len(count) - len(l.prefix)
	copy(b[start:], l.prefix)
	copy(b[start+len(l.prefix):], count)
	return b[start:]
}

// fields appends one gob struct: each non-zero field as a field-number
// delta and its value, then a zero terminator.
type fields struct {
	b    []byte
	last int
}

func (f *fields) at(i int) {
	f.b = appendUint(f.b, uint64(i-f.last))
	f.last = i
}

func (f *fields) uint(i int, x uint64) {
	if x != 0 {
		f.at(i)
		f.b = appendUint(f.b, x)
	}
}

func (f *fields) int(i int, x int64) {
	if x != 0 {
		f.at(i)
		f.b = appendInt(f.b, x)
	}
}

func (f *fields) str(i int, s string) {
	if s != "" {
		f.at(i)
		f.b = appendUint(f.b, uint64(len(s)))
		f.b = append(f.b, s...)
	}
}

func (f *fields) bytes(i int, p []byte) {
	if len(p) > 0 {
		f.at(i)
		f.b = appendUint(f.b, uint64(len(p)))
		f.b = append(f.b, p...)
	}
}

func (f *fields) end() []byte { return append(f.b, 0) }

// appendUint appends x in gob's uint format: one byte below 0x80, else the
// negated byte count followed by the big-endian bytes.
func appendUint(b []byte, x uint64) []byte {
	if x <= 0x7f {
		return append(b, byte(x))
	}
	n := (bits.Len64(x) + 7) / 8
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

// appendInt appends i in gob's int format: the sign in the low bit of a
// uint, complemented when negative.
func appendInt(b []byte, i int64) []byte {
	x := uint64(i) << 1
	if i < 0 {
		x = uint64(^i)<<1 | 1
	}
	return appendUint(b, x)
}

// decodeRequest parses a request encoded by encodeRequest (or by gob).
func decodeRequest(raw []byte, req *request) error {
	r := openMessage(raw, requestType.forDecode())
	for f := r.field(-1, 13); f >= 0; f = r.field(f, 13) {
		switch f {
		case 0:
			req.Op = string(r.next())
		case 1:
			req.Node = vfs.NodeID(r.uint())
		case 2:
			req.Node2 = vfs.NodeID(r.uint())
		case 3:
			req.Name = string(r.next())
		case 4:
			req.Name2 = string(r.next())
		case 5:
			req.Mode = r.uint16()
		case 6:
			req.UID = r.intVal()
		case 7:
			req.GID = r.intVal()
		case 8:
			req.Dev = vfs.DevID(r.intVal())
		case 9:
			req.Off = r.int()
		case 10:
			req.Len = r.intVal()
		case 11:
			req.Size = r.int()
		case 12:
			req.Data = clone(r.next())
		}
	}
	return r.done()
}

// decodeResponse parses a response encoded by encodeResponse (or by gob).
func decodeResponse(raw []byte, resp *response) error {
	r := openMessage(raw, responseType.forDecode())
	for f := r.field(-1, 7); f >= 0; f = r.field(f, 7) {
		switch f {
		case 0:
			resp.Err = errno.Errno(r.intVal())
		case 1:
			resp.Node = vfs.NodeID(r.uint())
		case 2:
			a := &resp.Attr
			for g := r.field(-1, 6); g >= 0; g = r.field(g, 6) {
				switch g {
				case 0:
					a.Type = vfs.NodeType(r.intVal())
				case 1:
					a.Mode = r.uint16()
				case 2:
					a.UID = r.intVal()
				case 3:
					a.GID = r.intVal()
				case 4:
					a.Size = r.int()
				case 5:
					a.Dev = vfs.DevID(r.intVal())
				}
			}
		case 3:
			resp.Target = string(r.next())
		case 4:
			// Every element takes at least its terminator byte.
			n := r.uint()
			if n > uint64(len(r.b)) {
				r.bad = true
			}
			if r.bad || n == 0 {
				break
			}
			resp.Dirents = make([]vfs.Dirent, n)
			for i := range resp.Dirents {
				d := &resp.Dirents[i]
				for g := r.field(-1, 3); g >= 0; g = r.field(g, 3) {
					switch g {
					case 0:
						d.Name = string(r.next())
					case 1:
						d.Node = vfs.NodeID(r.uint())
					case 2:
						d.Type = vfs.NodeType(r.intVal())
					}
				}
			}
		case 5:
			resp.Data = clone(r.next())
		case 6:
			resp.N = r.intVal()
		}
	}
	return r.done()
}

// openMessage checks raw is l's prefix followed by exactly one value
// message of l's type, and returns a reader positioned at the value.
func openMessage(raw []byte, l *gobLayout) reader {
	if l == nil || !bytes.HasPrefix(raw, l.prefix) {
		return reader{bad: true}
	}
	r := reader{b: raw[len(l.prefix):]}
	if n := r.uint(); n != uint64(len(r.b)) || !bytes.HasPrefix(r.b, l.id) {
		return reader{bad: true}
	}
	r.b = r.b[len(l.id):]
	return r
}

// reader parses gob primitives; the first malformed read sets bad and
// every read after it returns zero.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) uint() uint64 {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return 0
	}
	c := r.b[0]
	if c <= 0x7f {
		r.b = r.b[1:]
		return uint64(c)
	}
	n := -int(int8(c))
	if n > 8 || len(r.b) <= n {
		r.bad = true
		return 0
	}
	var x uint64
	for _, c := range r.b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	r.b = r.b[1+n:]
	return x
}

func (r *reader) int() int64 {
	x := r.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// intVal reads an int-typed field, rejecting values the platform's int
// cannot hold as gob does.
func (r *reader) intVal() int {
	x := r.int()
	if int64(int(x)) != x {
		r.bad = true
	}
	return int(x)
}

func (r *reader) uint16() uint16 {
	x := r.uint()
	if x > math.MaxUint16 {
		r.bad = true
	}
	return uint16(x)
}

// next reads a length-prefixed run of bytes (a string or []byte value)
// without copying it.
func (r *reader) next() []byte {
	n := r.uint()
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// field reads the next field number of a struct with n fields after
// field last. It returns -1 at the struct's terminator or on bad input.
func (r *reader) field(last, n int) int {
	d := r.uint()
	if r.bad || d == 0 {
		return -1
	}
	if d > uint64(n-1-last) {
		r.bad = true
		return -1
	}
	return last + int(d)
}

// done reports whether the whole value message parsed cleanly.
func (r *reader) done() error {
	if r.bad || len(r.b) != 0 {
		return errMalformed
	}
	return nil
}

// clone copies a decoded []byte field; an empty one decodes as nil, as
// with gob.
func clone(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	c := make([]byte, len(p))
	copy(c, p)
	return c
}
