package vfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

func TestGeometry(t *testing.T) {
	sb, err := Geometry(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Magic != Magic {
		t.Fatal("bad magic")
	}
	if sb.CGCount == 0 {
		t.Fatal("no cylinder groups")
	}
	if int(sb.DataStart) != 1+int(sb.InodeBlocks) {
		t.Fatalf("data start %d, inode blocks %d", sb.DataStart, sb.InodeBlocks)
	}
	if _, err := Geometry(4, 0); err == nil {
		t.Fatal("tiny disk accepted")
	}
}

func decodeSuper(b []byte) Super {
	le := binary.LittleEndian
	return Super{
		Magic:       le.Uint32(b[0:]),
		NBlocks:     le.Uint32(b[4:]),
		NInodes:     le.Uint32(b[8:]),
		InodeStart:  le.Uint32(b[12:]),
		InodeBlocks: le.Uint32(b[16:]),
		CGCount:     le.Uint32(b[20:]),
		DataStart:   le.Uint32(b[24:]),
	}
}

func TestSuperEncodeDecode(t *testing.T) {
	sb, _ := Geometry(4096, 512)
	b := make([]byte, BlockSize)
	sb.encode(b)
	got := decodeSuper(b)
	if got != sb {
		t.Fatalf("superblock roundtrip: %+v != %+v", got, sb)
	}
}

func TestInodeRoundTripProperty(t *testing.T) {
	f := func(mode, nlink uint16, size uint32, d0, d5 uint32) bool {
		in := Inode{Mode: mode, Nlink: nlink, Size: size}
		in.Direct[0] = d0
		in.Direct[5] = d5
		b := make([]byte, InodeSize)
		in.encode(b)
		return decodeInode(b) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirentRoundTrip(t *testing.T) {
	b := make([]byte, DirentSize)
	encodeDirent(b, dirent{ino: 42, name: "hello.txt"})
	d := decodeDirent(b)
	if d.ino != 42 || d.name != "hello.txt" {
		t.Fatalf("dirent roundtrip: %+v", d)
	}
}

// memStore is an uncached, zero-cost in-memory BlockStore for tests
// that exercise the layout and operation logic without a disk.
type memStore struct {
	blocks map[int][]byte
}

func newMemStore() BlockStore { return &memStore{blocks: make(map[int][]byte)} }

func (m *memStore) ReadBlock(t *core.Thread, blk int) []byte {
	if b, ok := m.blocks[blk]; ok {
		return append([]byte(nil), b...)
	}
	return make([]byte, BlockSize)
}

func (m *memStore) WriteBlock(t *core.Thread, blk int, data []byte) {
	m.blocks[blk] = append([]byte(nil), data...)
}

// rawInodeStore implements InodeStore directly over a BlockStore; valid
// only when the caller owns serialisation of the inode blocks.
type rawInodeStore struct {
	sb *Super
	st BlockStore
}

func (r rawInodeStore) GetInode(t *core.Thread, ino int) (Inode, error) {
	return ReadInode(t, r.st, r.sb, ino)
}

func (r rawInodeStore) PutInode(t *core.Thread, ino int, in Inode) error {
	return WriteInode(t, r.st, r.sb, ino, in)
}

// memCtx builds an operation context over the in-memory store (no
// simulation required for pure-logic tests, but a thread is still needed
// for the API; we use a tiny runtime).
func memCtx(t *testing.T) (*core.Runtime, func(th *core.Thread) (Ctx, Super)) {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(2))
	rt := core.NewRuntime(m, core.Config{Seed: 31})
	t.Cleanup(rt.Shutdown)
	return rt, func(th *core.Thread) (Ctx, Super) {
		st := newMemStore()
		sb, err := Mkfs(th, st, 2048, 256)
		if err != nil {
			t.Fatal(err)
		}
		in := rawInodeStore{sb: &sb, st: st}
		x := Ctx{SB: &sb, St: st, In: in, Al: newBitmapAlloc(&sb, st, in)}
		return x, sb
	}
}

func TestFsopsCreateLookupRemove(t *testing.T) {
	rt, mk := memCtx(t)
	rt.Boot("test", func(th *core.Thread) {
		x, _ := mk(th)
		ino, err := x.CreateEntry(th, RootIno, "file.txt", ModeFile)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		got, err := x.DirLookup(th, RootIno, "file.txt")
		if err != nil || got != ino {
			t.Errorf("lookup = %d,%v want %d", got, err, ino)
		}
		if _, err := x.CreateEntry(th, RootIno, "file.txt", ModeFile); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate create: %v", err)
		}
		if err := x.RemoveEntry(th, RootIno, "file.txt"); err != nil {
			t.Errorf("remove: %v", err)
		}
		if _, err := x.DirLookup(th, RootIno, "file.txt"); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup after remove: %v", err)
		}
	})
	rt.Run()
}

func TestFsopsFileReadWrite(t *testing.T) {
	rt, mk := memCtx(t)
	rt.Boot("test", func(th *core.Thread) {
		x, _ := mk(th)
		ino, _ := x.CreateEntry(th, RootIno, "data", ModeFile)
		payload := bytes.Repeat([]byte("chanos"), 1000) // 6000 bytes, 2 blocks
		if err := x.FileWrite(th, ino, 0, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		back, err := x.FileRead(th, ino, 0, len(payload))
		if err != nil || !bytes.Equal(back, payload) {
			t.Errorf("read back mismatch (err %v, %d bytes)", err, len(back))
		}
		// Partial read across a block boundary.
		mid, _ := x.FileRead(th, ino, 4090, 12)
		if !bytes.Equal(mid, payload[4090:4102]) {
			t.Error("offset read mismatch")
		}
		// Size via stat.
		in, _ := x.In.GetInode(th, ino)
		if int(in.Size) != len(payload) {
			t.Errorf("size = %d want %d", in.Size, len(payload))
		}
		// Overwrite in place.
		if err := x.FileWrite(th, ino, 2, []byte("XYZ")); err != nil {
			t.Errorf("overwrite: %v", err)
		}
		b2, _ := x.FileRead(th, ino, 0, 8)
		if string(b2) != "chXYZsch"[:8] {
			t.Errorf("after overwrite: %q", b2)
		}
	})
	rt.Run()
}

func TestFsopsHolesAndLimits(t *testing.T) {
	rt, mk := memCtx(t)
	rt.Boot("test", func(th *core.Thread) {
		x, _ := mk(th)
		ino, _ := x.CreateEntry(th, RootIno, "sparse", ModeFile)
		// Write at offset 2 blocks: blocks 0-1 are holes.
		if err := x.FileWrite(th, ino, 2*BlockSize, []byte("end")); err != nil {
			t.Errorf("sparse write: %v", err)
		}
		hole, _ := x.FileRead(th, ino, 0, 16)
		for _, b := range hole {
			if b != 0 {
				t.Error("hole not zero")
			}
		}
		// Exceed max file size.
		if err := x.FileWrite(th, ino, NDirect*BlockSize-1, []byte("xx")); !errors.Is(err, ErrTooBig) {
			t.Errorf("too-big write: %v", err)
		}
	})
	rt.Run()
}

func TestFsopsDirectoriesAndNotEmpty(t *testing.T) {
	rt, mk := memCtx(t)
	rt.Boot("test", func(th *core.Thread) {
		x, _ := mk(th)
		dir, err := x.CreateEntry(th, RootIno, "sub", ModeDir)
		if err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if _, err := x.CreateEntry(th, dir, "inner", ModeFile); err != nil {
			t.Errorf("create in subdir: %v", err)
		}
		if err := x.RemoveEntry(th, RootIno, "sub"); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("remove non-empty dir: %v", err)
		}
		if err := x.RemoveEntry(th, dir, "inner"); err != nil {
			t.Errorf("remove inner: %v", err)
		}
		if err := x.RemoveEntry(th, RootIno, "sub"); err != nil {
			t.Errorf("remove emptied dir: %v", err)
		}
		// Lookup through a file is ErrNotDir.
		f, _ := x.CreateEntry(th, RootIno, "plain", ModeFile)
		if _, err := x.DirLookup(th, f, "x"); !errors.Is(err, ErrNotDir) {
			t.Errorf("lookup in file: %v", err)
		}
	})
	rt.Run()
}

func TestAllocatorExhaustionAndReuse(t *testing.T) {
	rt, _ := memCtx(t)
	rt.Boot("test", func(th *core.Thread) {
		st := newMemStore()
		// Small fs: few CGs.
		sb, err := Mkfs(th, st, 200, 64)
		if err != nil {
			t.Error(err)
			return
		}
		al := newBitmapAlloc(&sb, st, nil)
		var got []int
		for {
			blk, err := al.AllocBlock(th, -1)
			if err != nil {
				break
			}
			got = append(got, blk)
		}
		want := int(sb.CGCount) * (CGSize - 1)
		if len(got) != want {
			t.Errorf("allocated %d blocks, want %d", len(got), want)
		}
		seen := map[int]bool{}
		for _, b := range got {
			if seen[b] {
				t.Errorf("block %d allocated twice", b)
			}
			seen[b] = true
		}
		// Free one, realloc gets it back eventually.
		al.FreeBlock(th, got[3])
		blk, err := al.AllocBlock(th, -1)
		if err != nil || blk != got[3] {
			t.Errorf("realloc = %d,%v want %d", blk, err, got[3])
		}
	})
	rt.Run()
}

// --- frontend scenario tests ---

type fsFixture struct {
	rt  *core.Runtime
	eng *sim.Engine
}

func newFixture(t *testing.T, cores int) *fsFixture {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: 37})
	t.Cleanup(rt.Shutdown)
	return &fsFixture{rt: rt, eng: eng}
}

// buildFS formats a disk and constructs the named frontend from inside a
// thread, handing it to run.
func buildFS(t *testing.T, kind string, cores int, run func(th *core.Thread, fs FS)) {
	fx := newFixture(t, cores)
	disk := blockdev.NewDisk(fx.rt, blockdev.DefaultDiskParams(4096))
	drv := blockdev.NewDriver(fx.rt, disk, 64, 0)
	fx.rt.Boot("main", func(th *core.Thread) {
		sb, err := Format(th, drv, 4096, 512)
		if err != nil {
			t.Errorf("format: %v", err)
			return
		}
		var fs FS
		switch kind {
		case "msg":
			fs = NewMsgFS(fx.rt, drv, sb, MsgFSConfig{})
		case "biglock":
			fs = NewLockFS(fx.rt, drv, sb, LockFSConfig{Mode: LockModeBig})
		case "shardlock":
			fs = NewLockFS(fx.rt, drv, sb, LockFSConfig{Mode: LockModeShard})
		}
		run(th, fs)
	})
	fx.rt.Run()
}

func scenario(t *testing.T, th *core.Thread, fs FS) {
	if _, err := fs.Mkdir(th, "/home"); err != nil {
		t.Errorf("mkdir /home: %v", err)
		return
	}
	if _, err := fs.Create(th, "/home/readme"); err != nil {
		t.Errorf("create: %v", err)
		return
	}
	msg := []byte("the lightweight channels model")
	if err := fs.Write(th, "/home/readme", 0, msg); err != nil {
		t.Errorf("write: %v", err)
		return
	}
	back, err := fs.Read(th, "/home/readme", 0, len(msg))
	if err != nil || !bytes.Equal(back, msg) {
		t.Errorf("read: %v %q", err, back)
	}
	in, err := fs.Stat(th, "/home/readme")
	if err != nil || int(in.Size) != len(msg) || in.Mode != ModeFile {
		t.Errorf("stat: %v %+v", err, in)
	}
	names, err := fs.ReadDir(th, "/home")
	if err != nil || len(names) != 1 || names[0] != "readme" {
		t.Errorf("readdir: %v %v", err, names)
	}
	if _, err := fs.Lookup(th, "/home/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup: %v", err)
	}
	h, err := fs.Open(th, "/home/readme")
	if err != nil {
		t.Errorf("open: %v", err)
		return
	}
	if err := h.Write(th, 4, []byte("LIGHT")); err != nil {
		t.Errorf("handle write: %v", err)
	}
	want := "the LIGHTweight"
	if back, err := h.Read(th, 0, len(want)); err != nil || string(back) != want {
		t.Errorf("handle read: %v %q, want %q", err, back, want)
	}
	if in, err := h.Stat(th); err != nil || int(in.Size) != len(msg) || in.Mode != ModeFile {
		t.Errorf("handle stat: %v %+v", err, in)
	}
	if back, err := fs.Read(th, "/home/readme", 0, len(want)); err != nil || string(back) != want {
		t.Errorf("read after handle write: %v %q", err, back)
	}
	if _, err := fs.Open(th, "/home/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("open missing: %v", err)
	}
	if _, err := fs.Create(th, "/home/readme"); !errors.Is(err, ErrExists) {
		t.Errorf("create existing: %v", err)
	}
	if _, err := fs.Lookup(th, "/home/readme/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("lookup through a file: %v", err)
	}
	if err := fs.Unlink(th, "/home"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("unlink non-empty dir: %v", err)
	}
	if _, err := fs.Stat(th, "home/readme"); !errors.Is(err, ErrNotFound) {
		t.Errorf("relative path: %v", err)
	}
	if err := fs.Unlink(th, "/home/readme"); err != nil {
		t.Errorf("unlink: %v", err)
	}
	if _, err := fs.Lookup(th, "/home/readme"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after unlink: %v", err)
	}
}

func TestFrontendScenario(t *testing.T) {
	for _, kind := range []string{"msg", "biglock", "shardlock"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			buildFS(t, kind, 16, func(th *core.Thread, fs FS) { scenario(t, th, fs) })
		})
	}
}

func TestConcurrentClientsDistinctFiles(t *testing.T) {
	for _, kind := range []string{"msg", "biglock", "shardlock"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			buildFS(t, kind, 16, func(th *core.Thread, fs FS) {
				const n = 8
				done := th.Runtime().NewChan("done", n)
				for i := 0; i < n; i++ {
					i := i
					th.Spawn("client", func(ct *core.Thread) {
						dir := fmt.Sprintf("/d%d", i)
						if _, err := fs.Mkdir(ct, dir); err != nil {
							t.Errorf("mkdir %s: %v", dir, err)
						}
						for j := 0; j < 5; j++ {
							p := fmt.Sprintf("%s/f%d", dir, j)
							if _, err := fs.Create(ct, p); err != nil {
								t.Errorf("create %s: %v", p, err)
							}
							if err := fs.Write(ct, p, 0, []byte(p)); err != nil {
								t.Errorf("write %s: %v", p, err)
							}
						}
						done.Send(ct, 1)
					})
				}
				for i := 0; i < n; i++ {
					done.Recv(th)
				}
				// Verify all content.
				for i := 0; i < n; i++ {
					for j := 0; j < 5; j++ {
						p := fmt.Sprintf("/d%d/f%d", i, j)
						b, err := fs.Read(th, p, 0, 64)
						if err != nil || string(b) != p {
							t.Errorf("verify %s: %v %q", p, err, b)
						}
					}
				}
			})
		})
	}
}

// TestMsgFSStopWritesBack: the cache shards are write-back, so Stop must
// sync them before it closes them, or a file written before Stop is
// gone for the next filesystem mounted on the same disk.
func TestMsgFSStopWritesBack(t *testing.T) {
	fx := newFixture(t, 8)
	disk := blockdev.NewDisk(fx.rt, blockdev.DefaultDiskParams(4096))
	drv := blockdev.NewDriver(fx.rt, disk, 64, 0)
	fx.rt.Boot("main", func(th *core.Thread) {
		sb, err := Format(th, drv, 4096, 512)
		if err != nil {
			t.Errorf("format: %v", err)
			return
		}
		fs := NewMsgFS(fx.rt, drv, sb, MsgFSConfig{})
		if _, err := fs.Create(th, "/f"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := fs.Write(th, "/f", 0, []byte("durable")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		fs.Stop(th)
		again := NewMsgFS(fx.rt, drv, sb, MsgFSConfig{})
		if got, err := again.Read(th, "/f", 0, 64); err != nil || string(got) != "durable" {
			t.Errorf("after Stop, a fresh MsgFS reads %q, %v; want \"durable\"", got, err)
		}
	})
	fx.rt.Run()
}

func TestMsgFSVnodeThreadsSpawned(t *testing.T) {
	buildFS(t, "msg", 16, func(th *core.Thread, fs FS) {
		m := fs.(*MsgFS)
		fs.Mkdir(th, "/a")
		fs.Create(th, "/a/b")
		fs.Stat(th, "/a/b")
		if m.VnodesSpawned < 3 { // root, /a, /a/b
			t.Errorf("vnodes spawned = %d, want >= 3", m.VnodesSpawned)
		}
	})
}

// Fifty reads of one small file walk the root directory, the inode and
// the data block each time; the buffer cache must answer nearly all of
// those block reads without the disk.
func TestCacheReducesDiskReads(t *testing.T) {
	fx := newFixture(t, 8)
	disk := blockdev.NewDisk(fx.rt, blockdev.DefaultDiskParams(4096))
	drv := blockdev.NewDriver(fx.rt, disk, 64, 0)
	fx.rt.Boot("main", func(th *core.Thread) {
		sb, err := Format(th, drv, 4096, 512)
		if err != nil {
			t.Errorf("format: %v", err)
			return
		}
		fs := NewMsgFS(fx.rt, drv, sb, MsgFSConfig{})
		fs.Create(th, "/hot")
		fs.Write(th, "/hot", 0, []byte("data"))
		before := disk.Reads
		for i := 0; i < 50; i++ {
			fs.Read(th, "/hot", 0, 4)
		}
		if n := disk.Reads - before; n > 15 {
			t.Errorf("cache ineffective: 50 reads of /hot read the disk %d times", n)
		}
	})
	fx.rt.Run()
}

func TestSplitPath(t *testing.T) {
	if c, err := splitPath("/a/b/c"); err != nil || len(c) != 3 {
		t.Fatalf("splitPath: %v %v", c, err)
	}
	if c, err := splitPath("/"); err != nil || len(c) != 0 {
		t.Fatalf("splitPath /: %v %v", c, err)
	}
	if _, err := splitPath("relative"); err == nil {
		t.Fatal("relative path accepted")
	}
	long := "/" + string(bytes.Repeat([]byte{'x'}, MaxName+1))
	if _, err := splitPath(long); !errors.Is(err, ErrNameLen) {
		t.Fatalf("long name: %v", err)
	}
}

// TestReadsAreCopies: the disk lends a read's block, the platter's own
// buffer, and the write-back cache rewrites an entry in place (put), so
// a block read through the cache, or straight through the driver, must
// be a copy: a rewrite reaches the platter only by writeback or sync.
func TestReadsAreCopies(t *testing.T) {
	fx := newFixture(t, 2)
	disk := blockdev.NewDisk(fx.rt, blockdev.DefaultDiskParams(64))
	drv := blockdev.NewDriver(fx.rt, disk, 4, 0)
	block := func(b byte) []byte { return bytes.Repeat([]byte{b}, BlockSize) }
	fx.rt.Boot("main", func(th *core.Thread) {
		st := driverStore{drv: drv}
		st.WriteBlock(th, 3, block(0x33))
		copy(st.ReadBlock(th, 3), block(0x99))
		if got := disk.SnapshotData()[3]; !bytes.Equal(got, block(0x33)) {
			t.Errorf("writing to an uncached read changed the platter to %x...", got[0])
		}
		c := newCacheCore(drv, 4)
		c.get(th, 3)
		c.put(th, 3, block(0x44))
		if got := disk.SnapshotData()[3]; !bytes.Equal(got, block(0x33)) {
			t.Errorf("a cached rewrite reached the platter (%x...) before its writeback", got[0])
		}
		c.sync(th)
		if got := disk.SnapshotData()[3]; !bytes.Equal(got, block(0x44)) {
			t.Errorf("block holds %x... after sync, want the rewrite (44)", got[0])
		}
	})
	fx.rt.Run()
}
