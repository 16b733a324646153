package nfs

import (
	"testing"
	"testing/quick"

	"procmig/internal/errno"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vfs"
)

func TestMalformedRequestRejected(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	server := net.AddHost("server")
	client := net.AddHost("client")
	if err := Serve(server, vfs.NewMemFS(), nil, ServerCosts{}); err != nil {
		t.Fatal(err)
	}
	raw, err := client.Call(nil, "server", Port, []byte("not gob at all"))
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := decodeResponse(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err != errno.EINVAL {
		t.Fatalf("err = %v, want EINVAL", resp.Err)
	}
}

func TestUnknownOpRejected(t *testing.T) {
	_, _, c := pair(t)
	if _, err := c.call(&request{Op: "format-disk"}); errno.Of(err) != errno.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

func TestLargeFileTransfer(t *testing.T) {
	_, _, c := pair(t)
	ns := vfs.NewNamespace(c)
	big := make([]byte, 256*1024)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := ns.WriteFile("/big", big, 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ns.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(big) {
		t.Fatal("large file corrupted over the wire")
	}
}

func TestSymlinkOpsRemote(t *testing.T) {
	_, _, c := pair(t)
	root := c.Root()
	if err := c.Symlink(root, "lnk", "/some/where", 0, 0); err != nil {
		t.Fatal(err)
	}
	tgt, err := c.Readlink(mustLookup(t, c, root, "lnk"))
	if err != nil || tgt != "/some/where" {
		t.Fatalf("readlink = %q err = %v", tgt, err)
	}
	// Readlink on a non-link is EINVAL.
	n, err := c.Create(root, "plain", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Readlink(n); errno.Of(err) != errno.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

func mustLookup(t *testing.T, c *Client, dir vfs.NodeID, name string) vfs.NodeID {
	t.Helper()
	n, _, err := c.Lookup(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSetmodeAndTruncateRemote(t *testing.T) {
	_, _, c := pair(t)
	root := c.Root()
	n, err := c.Create(root, "f", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(n, 0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := c.Setmode(n, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate(n, 4); err != nil {
		t.Fatal(err)
	}
	attr, err := c.Getattr(n)
	if err != nil || attr.Mode != 0o600 || attr.Size != 4 {
		t.Fatalf("attr = %+v err = %v", attr, err)
	}
}

func TestMknodRemoteDevice(t *testing.T) {
	_, _, c := pair(t)
	n, err := c.Mknod(c.Root(), "null", vfs.DevID(9), 0o666, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	attr, err := c.Getattr(n)
	if err != nil || attr.Type != vfs.TypeDev || attr.Dev != 9 {
		t.Fatalf("attr = %+v err = %v", attr, err)
	}
}

// Property: arbitrary content round-trips through the remote write/read
// path at arbitrary offsets.
func TestRemoteWriteReadProperty(t *testing.T) {
	_, _, c := pair(t)
	n, err := c.Create(c.Root(), "p", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte, off uint16) bool {
		if len(data) > 512 {
			data = data[:512]
		}
		if _, err := c.WriteAt(n, int64(off), data); err != nil {
			return false
		}
		got, err := c.ReadAt(n, int64(off), len(data))
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
