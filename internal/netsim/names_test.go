package netsim

import (
	"testing"

	"procmig/internal/sim"
)

// TestNamesDense: IDs are dense in order of first sight, stable, and the
// same whether a name arrives as a string or as wire bytes; Lookup never
// interns; attached hosts are interned by the network.
func TestNamesDense(t *testing.T) {
	net := New(sim.NewEngine(), sim.Millisecond, sim.Microsecond)
	net.AddHost("brick")
	d := net.Names()
	if id, ok := d.Lookup("brick"); !ok || id != 0 {
		t.Fatalf("attached host brick has id %d, %v; want 0", id, ok)
	}
	if _, ok := d.Lookup("ghost"); ok || d.Len() != 1 {
		t.Fatal("Lookup interned a stranger")
	}
	for i, name := range []string{"zeta", "alpha", ""} {
		if id := d.ID(name); id != int32(i+1) {
			t.Fatalf("ID(%q) = %d, want %d", name, id, i+1)
		}
	}
	if d.ID("alpha") != 2 || d.IDBytes([]byte("zeta")) != 1 || d.IDBytes([]byte("new")) != 4 {
		t.Fatal("IDs not stable across string and byte keys")
	}
	if d.Len() != 5 || d.Name(2) != "alpha" || d.Name(3) != "" {
		t.Fatalf("directory = %d names, Name(2) %q", d.Len(), d.Name(2))
	}
	key := []byte("alpha")
	if n := testing.AllocsPerRun(100, func() { d.IDBytes(key) }); n != 0 {
		t.Fatalf("IDBytes of an interned name allocates %.1f times", n)
	}
}
