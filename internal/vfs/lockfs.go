package vfs

import (
	"chanos/internal/baseline"
	"chanos/internal/blockdev"
	"chanos/internal/core"
)

// LockFSMode selects the shared-memory filesystem's locking discipline.
type LockFSMode int

const (
	// LockModeBig serialises every operation behind one ticket lock.
	LockModeBig LockFSMode = iota
	// LockModeShard uses per-vnode, per-cache-shard and allocator locks
	// (the heavily engineered variant).
	LockModeShard
)

// String returns the mode name.
func (m LockFSMode) String() string {
	if m == LockModeBig {
		return "biglock"
	}
	return "shardlock"
}

// LockFS is the conventional shared-memory filesystem foil: the same
// layout and operation logic as MsgFS, executed by the calling thread
// under locks, with trap costs at the syscall boundary.
type LockFS struct {
	frontend
	rt   *core.Runtime
	sb   Super
	mode LockFSMode
	Trap *baseline.Trap

	big        baseline.Lock
	vnLocks    []baseline.Lock
	allocLock  baseline.Lock
	cacheLocks []baseline.Lock
	caches     []*cacheCore
	alloc      *bitmapAlloc

	// Ops counts completed filesystem syscalls.
	Ops uint64
}

// LockFSConfig sizes the lock-based filesystem.
type LockFSConfig struct {
	Mode        LockFSMode
	CacheBlocks int // default 512
}

// vnodeLocks is the sharded mode's vnode lock table size.
const vnodeLocks = 64

// NewLockFS builds the lock-based frontend over a formatted disk.
func NewLockFS(rt *core.Runtime, drv *blockdev.Driver, sb Super, cfg LockFSConfig) *LockFS {
	if cfg.CacheBlocks <= 0 {
		cfg.CacheBlocks = 512
	}
	shards := nCacheShards
	if cfg.Mode == LockModeBig {
		shards = 1
	}
	fs := &LockFS{rt: rt, sb: sb, mode: cfg.Mode, Trap: baseline.NewTrap(rt)}
	fs.frontend = frontend{fs}
	for i := 0; i < shards; i++ {
		fs.caches = append(fs.caches, newCacheCore(drv, cfg.CacheBlocks/shards))
	}
	switch cfg.Mode {
	case LockModeBig:
		fs.big = baseline.NewTicketLock(rt)
	case LockModeShard:
		for i := 0; i < vnodeLocks; i++ {
			fs.vnLocks = append(fs.vnLocks, baseline.NewMCSLock(rt))
		}
		for range fs.caches {
			fs.cacheLocks = append(fs.cacheLocks, baseline.NewMCSLock(rt))
		}
		fs.allocLock = baseline.NewMCSLock(rt)
	}
	fs.alloc = newBitmapAlloc(&fs.sb, lfStore{fs}, lfInodeStore{fs})
	return fs
}

// --- stores ---
// In big-lock mode the op wrapper holds the big lock, so stores access
// the (single) cache directly. In shard mode each access takes the
// owning shard's lock.

type lfStore struct {
	fs *LockFS
}

func (s lfStore) shard(blk int) int { return blk % len(s.fs.caches) }

func (s lfStore) ReadBlock(t *core.Thread, blk int) []byte {
	sh := s.shard(blk)
	if s.fs.mode == LockModeShard {
		s.fs.cacheLocks[sh].Acquire(t)
		defer s.fs.cacheLocks[sh].Release(t)
	}
	return s.fs.caches[sh].get(t, blk)
}

func (s lfStore) WriteBlock(t *core.Thread, blk int, data []byte) {
	sh := s.shard(blk)
	if s.fs.mode == LockModeShard {
		s.fs.cacheLocks[sh].Acquire(t)
		defer s.fs.cacheLocks[sh].Release(t)
	}
	s.fs.caches[sh].put(t, blk, data)
}

// lfInodeStore makes the inode-block RMW atomic by holding the owning
// cache shard's lock across it (big mode: the big lock already covers
// it).
type lfInodeStore struct {
	fs *LockFS
}

func (s lfInodeStore) GetInode(t *core.Thread, ino int) (Inode, error) {
	blk, _, err := s.fs.sb.inodeLoc(ino)
	if err != nil {
		return Inode{}, err
	}
	sh := blk % len(s.fs.caches)
	if s.fs.mode == LockModeShard {
		s.fs.cacheLocks[sh].Acquire(t)
		defer s.fs.cacheLocks[sh].Release(t)
	}
	return ReadInode(t, directStore{s.fs.caches[sh]}, &s.fs.sb, ino)
}

func (s lfInodeStore) PutInode(t *core.Thread, ino int, in Inode) error {
	blk, _, err := s.fs.sb.inodeLoc(ino)
	if err != nil {
		return err
	}
	sh := blk % len(s.fs.caches)
	if s.fs.mode == LockModeShard {
		s.fs.cacheLocks[sh].Acquire(t)
		defer s.fs.cacheLocks[sh].Release(t)
	}
	return WriteInode(t, directStore{s.fs.caches[sh]}, &s.fs.sb, ino, in)
}

// lfAlloc serialises allocation behind the allocator lock (shard mode);
// big mode is already serialised.
type lfAlloc struct {
	fs *LockFS
}

func (a lfAlloc) AllocBlock(t *core.Thread, hintCG int) (int, error) {
	if a.fs.mode == LockModeShard {
		a.fs.allocLock.Acquire(t)
		defer a.fs.allocLock.Release(t)
	}
	return a.fs.alloc.AllocBlock(t, hintCG)
}

func (a lfAlloc) FreeBlock(t *core.Thread, blk int) {
	if a.fs.mode == LockModeShard {
		a.fs.allocLock.Acquire(t)
		defer a.fs.allocLock.Release(t)
	}
	a.fs.alloc.FreeBlock(t, blk)
}

func (a lfAlloc) AllocInode(t *core.Thread) (int, error) {
	if a.fs.mode == LockModeShard {
		a.fs.allocLock.Acquire(t)
		defer a.fs.allocLock.Release(t)
	}
	return a.fs.alloc.AllocInode(t)
}

func (a lfAlloc) FreeInode(t *core.Thread, ino int) {
	if a.fs.mode == LockModeShard {
		a.fs.allocLock.Acquire(t)
		defer a.fs.allocLock.Release(t)
	}
	a.fs.alloc.FreeInode(t, ino)
}

// ctx builds the operation context for a calling thread.
func (fs *LockFS) ctx() Ctx {
	return Ctx{SB: &fs.sb, St: lfStore{fs}, In: lfInodeStore{fs}, Al: lfAlloc{fs}}
}

// vnLock returns the lock covering vnode ino (shard mode).
func (fs *LockFS) vnLock(ino int) baseline.Lock {
	return fs.vnLocks[ino%len(fs.vnLocks)]
}

// enter/exit bracket one filesystem syscall.
func (fs *LockFS) enter(t *core.Thread) {
	fs.Trap.Enter(t)
	if fs.mode == LockModeBig {
		fs.big.Acquire(t)
	}
}

func (fs *LockFS) exit(t *core.Thread) {
	if fs.mode == LockModeBig {
		fs.big.Release(t)
	}
	fs.Trap.Exit(t)
	fs.Ops++
}

// walk resolves components with each directory locked for its lookup
// (shard mode) or under the big lock (already held).
func (fs *LockFS) walk(t *core.Thread, x Ctx, comps []string) (int, error) {
	ino := RootIno
	for _, c := range comps {
		r := fs.withTarget(t, x, ino, vnReq{op: vLookup, name: c})
		if r.err != nil {
			return 0, r.err
		}
		ino = r.ino
	}
	return ino, nil
}

// withTarget applies req to vnode ino with ino's lock held (shard mode).
func (fs *LockFS) withTarget(t *core.Thread, x Ctx, ino int, req vnReq) vnResp {
	if fs.mode == LockModeShard {
		l := fs.vnLock(ino)
		l.Acquire(t)
		defer l.Release(t)
	}
	return x.apply(t, ino, req)
}

// run implements backend: one syscall that walks comps, then applies req
// to the inode reached. A walk alone never takes the target's lock.
func (fs *LockFS) run(t *core.Thread, comps []string, req vnReq) vnResp {
	fs.enter(t)
	defer fs.exit(t)
	x := fs.ctx()
	ino, err := fs.walk(t, x, comps)
	if err != nil || req.op == vWalk {
		return vnResp{ino: ino, err: err}
	}
	return fs.withTarget(t, x, ino, req)
}

// open implements backend: the handle holds the inode number, as an fd
// table would.
func (fs *LockFS) open(t *core.Thread, comps []string) (*Handle, error) {
	r := fs.run(t, comps, vnReq{op: vWalk})
	if r.err != nil {
		return nil, r.err
	}
	return &Handle{Ino: r.ino, lfs: fs}, nil
}

// at is one syscall on an open file: it skips the walk but still traps
// and locks.
func (fs *LockFS) at(t *core.Thread, ino int, req vnReq) vnResp {
	fs.enter(t)
	defer fs.exit(t)
	return fs.withTarget(t, fs.ctx(), ino, req)
}

var (
	_ FS = (*MsgFS)(nil)
	_ FS = (*LockFS)(nil)
)
