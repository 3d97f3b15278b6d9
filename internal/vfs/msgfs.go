package vfs

import (
	"fmt"

	"chanos/internal/blockdev"
	"chanos/internal/core"
)

// MsgFS is the paper's file system: every vnode is a thread; buffer-cache
// shards and cylinder-group allocators are threads; everything talks in
// messages, nothing shares memory or takes a lock.
type MsgFS struct {
	rt *core.Runtime
	sb Super

	cacheShards []*core.Chan
	cacheCores  []*cacheCore // engine-idle inspection only
	allocShards []*core.Chan
	cgAllocs    []*shardCGAlloc
	inodeAlloc  *core.Chan
	vmShards    []*core.Chan

	// VnodesSpawned counts vnode threads created on demand.
	VnodesSpawned uint64
}

// MsgFSConfig sizes the service fleet.
type MsgFSConfig struct {
	CacheBlocks int // total cache capacity in blocks, default 512
}

// The service fleet's fixed shape.
const (
	// nCacheShards is the buffer-cache shard count of both frontends
	// (LockFS's big-lock mode uses one).
	nCacheShards = 8
	nAllocShards = 4
	nVMgrShards  = 4  // vnode-manager shards
	queueDepth   = 32 // service channel depth
)

func (c *MsgFSConfig) fill() {
	if c.CacheBlocks <= 0 {
		c.CacheBlocks = 512
	}
}

// Cache shard protocol.
type cacheOp int

const (
	cGet cacheOp = iota
	cPut
	cGetInode
	cPutInode
	cSync
)

type cacheReq struct {
	op    cacheOp
	blk   int
	data  []byte
	ino   int
	inode Inode
	reply *core.Chan
}

// MsgBytes implements core.Sized: block payloads dominate.
func (r cacheReq) MsgBytes() int { return 48 + len(r.data) }

type cacheResp struct {
	data  []byte
	inode Inode
	err   error
}

// MsgBytes implements core.Sized.
func (r cacheResp) MsgBytes() int { return 80 + len(r.data) }

// Allocator protocol.
type allocOp int

const (
	aAllocBlock allocOp = iota
	aFreeBlock
	aAllocInode
	aFreeInode
)

type allocReq struct {
	op    allocOp
	hint  int
	blk   int
	ino   int
	reply *core.Chan
}

type allocResp struct {
	blk int
	ino int
	err error
}

// Vnode protocol.
type vnOp int

const (
	vLookup vnOp = iota
	vCreate
	vMkdir
	vUnlink
	vStat
	vRead
	vWrite
	vList
)

type vnReq struct {
	op    vnOp
	name  string
	off   int
	n     int
	data  []byte
	reply *core.Chan
}

// MsgBytes implements core.Sized.
func (r vnReq) MsgBytes() int { return 64 + len(r.name) + len(r.data) }

type vnResp struct {
	ino   int
	inode Inode
	data  []byte
	names []string
	err   error
}

// MsgBytes implements core.Sized.
func (r vnResp) MsgBytes() int {
	n := 96 + len(r.data)
	for _, s := range r.names {
		n += len(s) + 16
	}
	return n
}

// vmReq asks a vnode-manager shard for the channel of ino's vnode thread,
// or (forget) retires a vnode whose inode was unlinked so a reused inode
// number gets a fresh thread.
type vmReq struct {
	ino    int
	forget bool
	reply  *core.Chan
}

// NewMsgFS builds the service fleet over a formatted disk. The
// superblock must come from Format on the same driver.
func NewMsgFS(rt *core.Runtime, drv *blockdev.Driver, sb Super, cfg MsgFSConfig) *MsgFS {
	cfg.fill()
	fs := &MsgFS{rt: rt, sb: sb}

	// Buffer-cache shards: each owns blocks blk % nCacheShards.
	per := cfg.CacheBlocks / nCacheShards
	for i := 0; i < nCacheShards; i++ {
		cc := newCacheCore(drv, per)
		fs.cacheCores = append(fs.cacheCores, cc)
		ch := rt.NewChan(fmt.Sprintf("fscache.%d", i), queueDepth)
		fs.cacheShards = append(fs.cacheShards, ch)
		rt.Boot(fmt.Sprintf("fscache.%d", i), func(t *core.Thread) {
			st := directStore{cc}
			for {
				v, ok := ch.Recv(t)
				if !ok {
					return
				}
				req := v.(cacheReq)
				var resp cacheResp
				switch req.op {
				case cGet:
					resp.data = cc.get(t, req.blk)
				case cPut:
					cc.put(t, req.blk, req.data)
				case cGetInode:
					resp.inode, resp.err = ReadInode(t, st, &fs.sb, req.ino)
				case cPutInode:
					resp.err = WriteInode(t, st, &fs.sb, req.ino, req.inode)
				case cSync:
					cc.sync(t)
				}
				req.reply.Send(t, resp)
			}
		})
	}

	// Cylinder-group administrator shards: shard i owns CGs with
	// cg % nAllocShards == i.
	for i := 0; i < nAllocShards; i++ {
		sa := newShardCGAlloc(&fs.sb, msgStore{fs}, i, nAllocShards)
		fs.cgAllocs = append(fs.cgAllocs, sa)
		ch := rt.NewChan(fmt.Sprintf("fscg.%d", i), queueDepth)
		fs.allocShards = append(fs.allocShards, ch)
		rt.Boot(fmt.Sprintf("fscg.%d", i), func(t *core.Thread) {
			for {
				v, ok := ch.Recv(t)
				if !ok {
					return
				}
				req := v.(allocReq)
				var resp allocResp
				switch req.op {
				case aAllocBlock:
					resp.blk, resp.err = sa.allocBlock(t, req.hint)
				case aFreeBlock:
					sa.freeBlock(t, req.blk)
				}
				if req.reply != nil {
					req.reply.Send(t, resp)
				}
			}
		})
	}

	// The free-map / inode allocator thread.
	fs.inodeAlloc = rt.NewChan("fsinodealloc", queueDepth)
	rt.Boot("fsinodealloc", func(t *core.Thread) {
		ia := &inodeAllocator{fs: fs, cursor: RootIno + 1}
		for {
			v, ok := fs.inodeAlloc.Recv(t)
			if !ok {
				return
			}
			req := v.(allocReq)
			var resp allocResp
			switch req.op {
			case aAllocInode:
				resp.ino, resp.err = ia.alloc(t)
			case aFreeInode:
				ia.free(t, req.ino)
			}
			if req.reply != nil {
				req.reply.Send(t, resp)
			}
		}
	})

	// Vnode-manager shards: hand out (and lazily spawn) vnode threads.
	for i := 0; i < nVMgrShards; i++ {
		ch := rt.NewChan(fmt.Sprintf("fsvmgr.%d", i), queueDepth)
		fs.vmShards = append(fs.vmShards, ch)
		rt.Boot(fmt.Sprintf("fsvmgr.%d", i), func(t *core.Thread) {
			vnodes := make(map[int]*core.Chan)
			for {
				v, ok := ch.Recv(t)
				if !ok {
					return
				}
				req := v.(vmReq)
				if req.forget {
					if vch, ok := vnodes[req.ino]; ok {
						delete(vnodes, req.ino)
						vch.Close(t) // the vnode thread drains and exits
					}
					continue
				}
				vch, ok := vnodes[req.ino]
				if !ok {
					vch = fs.spawnVnode(t, req.ino)
					vnodes[req.ino] = vch
				}
				req.reply.Send(t, vch)
			}
		})
	}
	return fs
}

// spawnVnode starts the thread owning inode ino — "every vnode is its own
// thread" — and returns its request channel. The thread keeps a local
// copy of the blocks it owns: a vnode is the sole reader and writer of
// its directory/file data blocks, so no coherence is needed — this is the
// state-stays-local payoff of the architecture. Writes go through to the
// shared cache so eviction and sync still work.
func (fs *MsgFS) spawnVnode(t *core.Thread, ino int) *core.Chan {
	vch := fs.rt.NewChan(fmt.Sprintf("vnode.%d", ino), queueDepth)
	fs.VnodesSpawned++
	t.Spawn(fmt.Sprintf("vnode.%d", ino), func(vt *core.Thread) {
		local := &vnodeStore{fs: fs, blocks: make(map[int][]byte)}
		x := Ctx{SB: &fs.sb, St: local, In: msgInodeStore{fs}, Al: msgAlloc{fs}}
		for {
			v, ok := vch.Recv(vt)
			if !ok {
				return
			}
			req := v.(vnReq)
			var resp vnResp
			switch req.op {
			case vLookup:
				resp.ino, resp.err = x.DirLookup(vt, ino, req.name)
			case vCreate:
				resp.ino, resp.err = x.CreateEntry(vt, ino, req.name, ModeFile)
			case vMkdir:
				resp.ino, resp.err = x.CreateEntry(vt, ino, req.name, ModeDir)
			case vUnlink:
				// Resolve the victim first so its vnode thread can be
				// retired (its inode number may be reused).
				gone, lerr := x.DirLookup(vt, ino, req.name)
				resp.err = x.RemoveEntry(vt, ino, req.name)
				if lerr == nil && resp.err == nil {
					fs.vmShards[gone%len(fs.vmShards)].Send(vt, vmReq{ino: gone, forget: true})
				}
			case vStat:
				resp.inode, resp.err = x.Stat(vt, ino)
			case vRead:
				resp.data, resp.err = x.FileRead(vt, ino, req.off, req.n)
			case vWrite:
				resp.err = x.FileWrite(vt, ino, req.off, req.data)
			case vList:
				resp.names, resp.err = x.DirList(vt, ino)
			}
			req.reply.Send(vt, resp)
		}
	})
	return vch
}

// vnodeStore is the vnode thread's private block cache over the shared
// cache shards: reads hit locally (L1/L2-class cost), writes go through.
type vnodeStore struct {
	fs     *MsgFS
	blocks map[int][]byte
}

func (s *vnodeStore) ReadBlock(t *core.Thread, blk int) []byte {
	if b, ok := s.blocks[blk]; ok {
		t.Compute(20) // local cache hit
		return append([]byte(nil), b...)
	}
	b := msgStore{s.fs}.ReadBlock(t, blk)
	s.blocks[blk] = append([]byte(nil), b...)
	return b
}

func (s *vnodeStore) WriteBlock(t *core.Thread, blk int, data []byte) {
	s.blocks[blk] = append([]byte(nil), data...)
	msgStore{s.fs}.WriteBlock(t, blk, data)
}

// vnodeChan resolves ino to its vnode thread's channel via the manager.
func (fs *MsgFS) vnodeChan(t *core.Thread, ino int) *core.Chan {
	sh := fs.vmShards[ino%len(fs.vmShards)]
	reply := t.NewChan("vmgr.reply", 1)
	sh.Send(t, vmReq{ino: ino, reply: reply})
	v, _ := reply.Recv(t)
	return v.(*core.Chan)
}

// vnCall sends one vnode request and waits for the response.
func (fs *MsgFS) vnCall(t *core.Thread, ino int, req vnReq) vnResp {
	vch := fs.vnodeChan(t, ino)
	reply := t.NewChan("vn.reply", 1)
	req.reply = reply
	vch.Send(t, req)
	v, _ := reply.Recv(t)
	return v.(vnResp)
}

// walk resolves path components from the root by messaging each directory
// vnode in turn.
func (fs *MsgFS) walk(t *core.Thread, comps []string) (int, error) {
	ino := RootIno
	for _, c := range comps {
		resp := fs.vnCall(t, ino, vnReq{op: vLookup, name: c})
		if resp.err != nil {
			return 0, resp.err
		}
		ino = resp.ino
	}
	return ino, nil
}

// Lookup implements FS.
func (fs *MsgFS) Lookup(t *core.Thread, path string) (int, error) {
	comps, err := splitPath(path)
	if err != nil {
		return 0, err
	}
	return fs.walk(t, comps)
}

// Create implements FS.
func (fs *MsgFS) Create(t *core.Thread, path string) (int, error) {
	parent, name, err := splitParent(path)
	if err != nil {
		return 0, err
	}
	dir, err := fs.walk(t, parent)
	if err != nil {
		return 0, err
	}
	resp := fs.vnCall(t, dir, vnReq{op: vCreate, name: name})
	return resp.ino, resp.err
}

// Mkdir implements FS.
func (fs *MsgFS) Mkdir(t *core.Thread, path string) (int, error) {
	parent, name, err := splitParent(path)
	if err != nil {
		return 0, err
	}
	dir, err := fs.walk(t, parent)
	if err != nil {
		return 0, err
	}
	resp := fs.vnCall(t, dir, vnReq{op: vMkdir, name: name})
	return resp.ino, resp.err
}

// Unlink implements FS.
func (fs *MsgFS) Unlink(t *core.Thread, path string) error {
	parent, name, err := splitParent(path)
	if err != nil {
		return err
	}
	dir, err := fs.walk(t, parent)
	if err != nil {
		return err
	}
	return fs.vnCall(t, dir, vnReq{op: vUnlink, name: name}).err
}

// Stat implements FS.
func (fs *MsgFS) Stat(t *core.Thread, path string) (Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return Inode{}, err
	}
	ino, err := fs.walk(t, comps)
	if err != nil {
		return Inode{}, err
	}
	resp := fs.vnCall(t, ino, vnReq{op: vStat})
	return resp.inode, resp.err
}

// Read implements FS.
func (fs *MsgFS) Read(t *core.Thread, path string, off, n int) ([]byte, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	ino, err := fs.walk(t, comps)
	if err != nil {
		return nil, err
	}
	resp := fs.vnCall(t, ino, vnReq{op: vRead, off: off, n: n})
	return resp.data, resp.err
}

// Write implements FS.
func (fs *MsgFS) Write(t *core.Thread, path string, off int, data []byte) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	ino, err := fs.walk(t, comps)
	if err != nil {
		return err
	}
	return fs.vnCall(t, ino, vnReq{op: vWrite, off: off, data: data}).err
}

// ReadDir implements FS.
func (fs *MsgFS) ReadDir(t *core.Thread, path string) ([]string, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	ino, err := fs.walk(t, comps)
	if err != nil {
		return nil, err
	}
	resp := fs.vnCall(t, ino, vnReq{op: vList})
	return resp.names, resp.err
}

// Handle is an open file: a direct channel to the file's vnode thread.
// This is the paper's connection plumbing — resolve a path once, then
// "move the data directly to its destination by a single send operation".
type Handle struct {
	Ino int
	fs  *MsgFS
	ch  *core.Chan
}

// Open resolves path and returns a handle bound to its vnode thread.
func (fs *MsgFS) Open(t *core.Thread, path string) (*Handle, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	ino, err := fs.walk(t, comps)
	if err != nil {
		return nil, err
	}
	return &Handle{Ino: ino, fs: fs, ch: fs.vnodeChan(t, ino)}, nil
}

// call sends one request straight to the vnode thread.
func (h *Handle) call(t *core.Thread, req vnReq) vnResp {
	reply := t.NewChan("h.reply", 1)
	req.reply = reply
	h.ch.Send(t, req)
	v, _ := reply.Recv(t)
	return v.(vnResp)
}

// Stat returns the file's inode.
func (h *Handle) Stat(t *core.Thread) (Inode, error) {
	r := h.call(t, vnReq{op: vStat})
	return r.inode, r.err
}

// Read reads n bytes at off.
func (h *Handle) Read(t *core.Thread, off, n int) ([]byte, error) {
	r := h.call(t, vnReq{op: vRead, off: off, n: n})
	return r.data, r.err
}

// Write writes data at off.
func (h *Handle) Write(t *core.Thread, off int, data []byte) error {
	return h.call(t, vnReq{op: vWrite, off: off, data: data}).err
}

// Stop closes every service channel (vnode threads keep running until
// runtime shutdown; they are parked on empty channels and cost nothing).
func (fs *MsgFS) Stop(t *core.Thread) {
	for _, ch := range fs.cacheShards {
		ch.Close(t)
	}
	for _, ch := range fs.allocShards {
		ch.Close(t)
	}
	fs.inodeAlloc.Close(t)
	for _, ch := range fs.vmShards {
		ch.Close(t)
	}
}

// CacheStats aggregates shard statistics (engine must be idle).
func (fs *MsgFS) CacheStats() CacheStats {
	var s CacheStats
	for _, cc := range fs.cacheCores {
		s.Hits += cc.Stats.Hits
		s.Misses += cc.Stats.Misses
		s.Evictions += cc.Stats.Evictions
		s.Writebacks += cc.Stats.Writebacks
	}
	return s
}

// --- client-side stubs used by vnode and allocator threads ---

// msgStore routes block access to the owning cache shard.
type msgStore struct {
	fs *MsgFS
}

func (m msgStore) shard(blk int) *core.Chan {
	return m.fs.cacheShards[blk%len(m.fs.cacheShards)]
}

func (m msgStore) ReadBlock(t *core.Thread, blk int) []byte {
	reply := t.NewChan("c.reply", 1)
	m.shard(blk).Send(t, cacheReq{op: cGet, blk: blk, reply: reply})
	v, _ := reply.Recv(t)
	return v.(cacheResp).data
}

func (m msgStore) WriteBlock(t *core.Thread, blk int, data []byte) {
	reply := t.NewChan("c.reply", 1)
	m.shard(blk).Send(t, cacheReq{op: cPut, blk: blk, data: data, reply: reply})
	reply.Recv(t)
}

// msgInodeStore performs the inode RMW inside the owning cache shard.
type msgInodeStore struct {
	fs *MsgFS
}

func (m msgInodeStore) GetInode(t *core.Thread, ino int) (Inode, error) {
	blk, _, err := m.fs.sb.inodeLoc(ino)
	if err != nil {
		return Inode{}, err
	}
	reply := t.NewChan("c.reply", 1)
	m.fs.cacheShards[blk%len(m.fs.cacheShards)].Send(t, cacheReq{op: cGetInode, ino: ino, reply: reply})
	v, _ := reply.Recv(t)
	r := v.(cacheResp)
	return r.inode, r.err
}

func (m msgInodeStore) PutInode(t *core.Thread, ino int, in Inode) error {
	blk, _, err := m.fs.sb.inodeLoc(ino)
	if err != nil {
		return err
	}
	reply := t.NewChan("c.reply", 1)
	m.fs.cacheShards[blk%len(m.fs.cacheShards)].Send(t, cacheReq{op: cPutInode, ino: ino, inode: in, reply: reply})
	v, _ := reply.Recv(t)
	return v.(cacheResp).err
}

// msgAlloc routes allocation to CG administrator threads and the inode
// allocator.
type msgAlloc struct {
	fs *MsgFS
}

func (m msgAlloc) AllocBlock(t *core.Thread, hintCG int) (int, error) {
	n := len(m.fs.allocShards)
	start := 0
	if hintCG >= 0 {
		start = hintCG % n
	} else {
		start = t.ID() % n // spread unhinted allocations by caller
	}
	var lastErr error
	for i := 0; i < n; i++ {
		sh := m.fs.allocShards[(start+i)%n]
		reply := t.NewChan("a.reply", 1)
		sh.Send(t, allocReq{op: aAllocBlock, hint: hintCG, reply: reply})
		v, _ := reply.Recv(t)
		r := v.(allocResp)
		if r.err == nil {
			return r.blk, nil
		}
		lastErr = r.err
	}
	return 0, lastErr
}

func (m msgAlloc) FreeBlock(t *core.Thread, blk int) {
	cg, _, err := m.fs.sb.cgOf(blk)
	if err != nil {
		return
	}
	sh := m.fs.allocShards[cg%len(m.fs.allocShards)]
	sh.Send(t, allocReq{op: aFreeBlock, blk: blk})
}

func (m msgAlloc) AllocInode(t *core.Thread) (int, error) {
	reply := t.NewChan("a.reply", 1)
	m.fs.inodeAlloc.Send(t, allocReq{op: aAllocInode, reply: reply})
	v, _ := reply.Recv(t)
	r := v.(allocResp)
	return r.ino, r.err
}

func (m msgAlloc) FreeInode(t *core.Thread, ino int) {
	m.fs.inodeAlloc.Send(t, allocReq{op: aFreeInode, ino: ino})
}

// shardCGAlloc owns the cylinder groups with cg % stride == index.
type shardCGAlloc struct {
	sb     *Super
	inner  *bitmapAlloc
	myCGs  []int
	cursor int
}

func newShardCGAlloc(sb *Super, st BlockStore, index, stride int) *shardCGAlloc {
	sa := &shardCGAlloc{sb: sb, inner: newBitmapAlloc(sb, st)}
	for cg := index; cg < int(sb.CGCount); cg += stride {
		sa.myCGs = append(sa.myCGs, cg)
	}
	return sa
}

func (sa *shardCGAlloc) allocBlock(t *core.Thread, hint int) (int, error) {
	if len(sa.myCGs) == 0 {
		return 0, ErrNoSpace
	}
	for i := 0; i < len(sa.myCGs); i++ {
		cg := sa.myCGs[(sa.cursor+i)%len(sa.myCGs)]
		if blk, ok := sa.inner.allocInCG(t, cg); ok {
			sa.cursor = (sa.cursor + i) % len(sa.myCGs)
			return blk, nil
		}
	}
	return 0, ErrNoSpace
}

func (sa *shardCGAlloc) freeBlock(t *core.Thread, blk int) {
	sa.inner.FreeBlock(t, blk)
}

// inodeAllocator is the free-map thread's inode side: single-threaded
// scan with a rotating cursor, claims via atomic shard RMW.
type inodeAllocator struct {
	fs     *MsgFS
	cursor int
}

func (ia *inodeAllocator) alloc(t *core.Thread) (int, error) {
	ist := msgInodeStore{ia.fs}
	n := int(ia.fs.sb.NInodes)
	for i := 0; i < n; i++ {
		ino := ia.cursor + i
		for ino >= n {
			ino = ino - n + RootIno + 1
		}
		if ino <= RootIno {
			continue
		}
		in, err := ist.GetInode(t, ino)
		if err != nil {
			return 0, err
		}
		if in.Mode == ModeFree {
			if err := ist.PutInode(t, ino, Inode{Mode: ModeFile}); err != nil {
				return 0, err
			}
			ia.cursor = ino + 1
			return ino, nil
		}
	}
	return 0, ErrNoSpace
}

func (ia *inodeAllocator) free(t *core.Thread, ino int) {
	ist := msgInodeStore{ia.fs}
	_ = ist.PutInode(t, ino, Inode{})
}
