package netsim

// Names is a host-name directory: it interns each name once and gives it a
// dense ID — 0, 1, 2, … in order of first sight — that is never reused.
// Per-host tables about the cluster (the gossip membership) index slices
// by these IDs instead of each keeping its own string-keyed map and its
// own copy of every name. Any name can be interned, attached to the
// network or not: gossip names hosts it has only heard of. IDs are a
// local representation; they never go on the wire.
//
// A Names is not safe for concurrent use. The tasks of one engine run one
// at a time, so a directory shared by the hosts of one network needs no
// lock.
type Names struct {
	ids   map[string]int32
	names []string
}

// NewNames returns an empty directory.
func NewNames() *Names { return &Names{ids: map[string]int32{}} }

// ID interns name and returns its ID.
func (d *Names) ID(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	return d.add(name)
}

// IDBytes is ID keyed by raw wire bytes. The lookup compiles to a
// no-allocation probe, so a name already interned costs nothing.
func (d *Names) IDBytes(b []byte) int32 {
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	return d.add(string(b))
}

// Lookup returns name's ID without interning it.
func (d *Names) Lookup(name string) (int32, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the interned name with the given ID.
func (d *Names) Name(id int32) string { return d.names[id] }

// Len reports how many names have been interned; IDs run from 0 to Len-1.
func (d *Names) Len() int { return len(d.names) }

func (d *Names) add(name string) int32 {
	id := int32(len(d.names))
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}
