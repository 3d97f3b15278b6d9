package vfs

import (
	"chanos/internal/core"
)

// Alloc abstracts block/inode allocation so the message frontend can
// delegate to cylinder-group administrator threads while the lock
// frontends allocate inline under locks.
type Alloc interface {
	// AllocBlock returns a free data block, preferring cylinder group
	// hintCG (-1 = no preference).
	AllocBlock(t *core.Thread, hintCG int) (int, error)
	FreeBlock(t *core.Thread, blk int)
	AllocInode(t *core.Thread) (int, error)
	FreeInode(t *core.Thread, ino int)
}

// InodeStore abstracts inode access. Inode-table blocks are shared by
// many vnodes, so their read-modify-write must be atomic; the message
// frontend performs it inside the owning cache-shard thread, the lock
// frontends under a lock.
type InodeStore interface {
	GetInode(t *core.Thread, ino int) (Inode, error)
	PutInode(t *core.Thread, ino int, in Inode) error
}

// vnOp names one entry of the operation table (Ctx.apply), plus vWalk,
// which the backends answer from the walk alone.
type vnOp int

const (
	vWalk   vnOp = iota // resolve only: the path's inode number
	vLookup             // the inode named in this directory
	vCreate
	vMkdir
	vUnlink
	vStat
	vRead
	vWrite
	vList
)

// vnReq is one operation for a vnode. MsgFS sends it to the vnode's
// thread (reply is its answer channel); LockFS applies it inline.
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

// Ctx bundles the stores a filesystem operation runs against.
type Ctx struct {
	SB *Super
	St BlockStore
	In InodeStore
	Al Alloc
}

// ReadInode fetches inode ino straight from a BlockStore (no atomicity).
func ReadInode(t *core.Thread, st BlockStore, sb *Super, ino int) (Inode, error) {
	blk, off, err := sb.inodeLoc(ino)
	if err != nil {
		return Inode{}, err
	}
	b := st.ReadBlock(t, blk)
	return decodeInode(b[off : off+InodeSize]), nil
}

// WriteInode stores inode ino straight to a BlockStore (no atomicity).
func WriteInode(t *core.Thread, st BlockStore, sb *Super, ino int, in Inode) error {
	blk, off, err := sb.inodeLoc(ino)
	if err != nil {
		return err
	}
	b := st.ReadBlock(t, blk)
	in.encode(b[off : off+InodeSize])
	st.WriteBlock(t, blk, b)
	return nil
}

// scanDir reads directory dirIno's blocks in order and calls visit on
// each slot (its block number, the block, the slot's bytes and its
// entry) until visit returns true. It returns the directory's inode and
// whether visit stopped the scan.
func (x *Ctx) scanDir(t *core.Thread, dirIno int, visit func(blk int, b, slot []byte, d dirent) bool) (Inode, bool, error) {
	di, err := x.In.GetInode(t, dirIno)
	if err != nil {
		return di, false, err
	}
	if di.Mode != ModeDir {
		return di, false, ErrNotDir
	}
	for _, blk := range di.Direct {
		if blk == 0 {
			continue
		}
		b := x.St.ReadBlock(t, int(blk))
		for s := 0; s < DirentsPB; s++ {
			slot := b[s*DirentSize : (s+1)*DirentSize]
			if visit(int(blk), b, slot, decodeDirent(slot)) {
				return di, true, nil
			}
		}
	}
	return di, false, nil
}

// DirLookup searches directory dirIno for name.
func (x *Ctx) DirLookup(t *core.Thread, dirIno int, name string) (int, error) {
	var ino int
	_, found, err := x.scanDir(t, dirIno, func(_ int, _, _ []byte, d dirent) bool {
		if d.ino == 0 || d.name != name {
			return false
		}
		ino = int(d.ino)
		return true
	})
	if err == nil && !found {
		return 0, ErrNotFound
	}
	return ino, err
}

// DirList returns the names in directory dirIno.
func (x *Ctx) DirList(t *core.Thread, dirIno int) ([]string, error) {
	var names []string
	_, _, err := x.scanDir(t, dirIno, func(_ int, _, _ []byte, d dirent) bool {
		if d.ino != 0 {
			names = append(names, d.name)
		}
		return false
	})
	return names, err
}

// dirInsert adds (name -> ino) to directory dirIno, allocating a
// directory block if needed.
func (x *Ctx) dirInsert(t *core.Thread, dirIno int, name string, ino int) error {
	if len(name) == 0 || len(name) > MaxName {
		return ErrNameLen
	}
	di, done, err := x.scanDir(t, dirIno, func(blk int, b, slot []byte, d dirent) bool {
		if d.ino != 0 {
			return false
		}
		encodeDirent(slot, dirent{ino: uint32(ino), name: name})
		x.St.WriteBlock(t, blk, b)
		return true
	})
	if err != nil || done {
		return err
	}
	for i, blk := range di.Direct {
		if blk != 0 {
			continue
		}
		nb, err := x.Al.AllocBlock(t, -1)
		if err != nil {
			return err
		}
		b := make([]byte, BlockSize)
		encodeDirent(b, dirent{ino: uint32(ino), name: name})
		x.St.WriteBlock(t, nb, b)
		di.Direct[i] = uint32(nb)
		di.Size += BlockSize
		return x.In.PutInode(t, dirIno, di)
	}
	return ErrNoSpace // directory full
}

// dirRemove deletes name from directory dirIno.
func (x *Ctx) dirRemove(t *core.Thread, dirIno int, name string) error {
	_, found, err := x.scanDir(t, dirIno, func(blk int, b, slot []byte, d dirent) bool {
		if d.ino == 0 || d.name != name {
			return false
		}
		clear(slot)
		x.St.WriteBlock(t, blk, b)
		return true
	})
	if err == nil && !found {
		return ErrNotFound
	}
	return err
}

// CreateEntry allocates an inode of the given mode and links it under
// dirIno as name.
func (x *Ctx) CreateEntry(t *core.Thread, dirIno int, name string, mode uint16) (int, error) {
	if _, err := x.DirLookup(t, dirIno, name); err == nil {
		return 0, ErrExists
	} else if err != ErrNotFound {
		return 0, err
	}
	ino, err := x.Al.AllocInode(t)
	if err != nil {
		return 0, err
	}
	if err := x.In.PutInode(t, ino, Inode{Mode: mode, Nlink: 1}); err != nil {
		x.Al.FreeInode(t, ino)
		return 0, err
	}
	if err := x.dirInsert(t, dirIno, name, ino); err != nil {
		x.Al.FreeInode(t, ino)
		return 0, err
	}
	return ino, nil
}

// RemoveEntry unlinks name from dirIno and frees the target's inode and
// blocks. Non-empty directories are refused.
func (x *Ctx) RemoveEntry(t *core.Thread, dirIno int, name string) error {
	ino, err := x.DirLookup(t, dirIno, name)
	if err != nil {
		return err
	}
	in, err := x.In.GetInode(t, ino)
	if err != nil {
		return err
	}
	if in.Mode == ModeDir {
		names, err := x.DirList(t, ino)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			return ErrNotEmpty
		}
	}
	if err := x.dirRemove(t, dirIno, name); err != nil {
		return err
	}
	for _, blk := range in.Direct {
		if blk != 0 {
			x.Al.FreeBlock(t, int(blk))
		}
	}
	x.Al.FreeInode(t, ino)
	return nil
}

// FileRead reads up to n bytes at off from file ino.
func (x *Ctx) FileRead(t *core.Thread, ino, off, n int) ([]byte, error) {
	in, err := x.In.GetInode(t, ino)
	if err != nil {
		return nil, err
	}
	if in.Mode == ModeDir {
		return nil, ErrIsDir
	}
	if off >= int(in.Size) {
		return nil, nil
	}
	if off+n > int(in.Size) {
		n = int(in.Size) - off
	}
	out := make([]byte, 0, n)
	for n > 0 {
		bi := off / BlockSize
		bo := off % BlockSize
		if bi >= NDirect {
			break
		}
		take := BlockSize - bo
		if take > n {
			take = n
		}
		if in.Direct[bi] == 0 {
			out = append(out, make([]byte, take)...) // hole
		} else {
			b := x.St.ReadBlock(t, int(in.Direct[bi]))
			out = append(out, b[bo:bo+take]...)
		}
		off += take
		n -= take
	}
	return out, nil
}

// FileWrite writes data at off in file ino, allocating blocks as needed.
func (x *Ctx) FileWrite(t *core.Thread, ino, off int, data []byte) error {
	in, err := x.In.GetInode(t, ino)
	if err != nil {
		return err
	}
	if in.Mode == ModeDir {
		return ErrIsDir
	}
	if off+len(data) > NDirect*BlockSize {
		return ErrTooBig
	}
	pos := off
	rest := data
	for len(rest) > 0 {
		bi := pos / BlockSize
		bo := pos % BlockSize
		take := BlockSize - bo
		if take > len(rest) {
			take = len(rest)
		}
		if in.Direct[bi] == 0 {
			nb, err := x.Al.AllocBlock(t, -1)
			if err != nil {
				return err
			}
			in.Direct[bi] = uint32(nb)
		}
		var b []byte
		if take == BlockSize {
			b = make([]byte, BlockSize)
		} else {
			b = x.St.ReadBlock(t, int(in.Direct[bi]))
		}
		copy(b[bo:], rest[:take])
		x.St.WriteBlock(t, int(in.Direct[bi]), b)
		pos += take
		rest = rest[take:]
	}
	if pos > int(in.Size) {
		in.Size = uint32(pos)
	}
	return x.In.PutInode(t, ino, in)
}

// apply runs req against vnode ino: the one operation table every
// frontend shares.
func (x *Ctx) apply(t *core.Thread, ino int, req vnReq) vnResp {
	var r vnResp
	switch req.op {
	case vLookup:
		r.ino, r.err = x.DirLookup(t, ino, req.name)
	case vCreate:
		r.ino, r.err = x.CreateEntry(t, ino, req.name, ModeFile)
	case vMkdir:
		r.ino, r.err = x.CreateEntry(t, ino, req.name, ModeDir)
	case vUnlink:
		r.err = x.RemoveEntry(t, ino, req.name)
	case vStat:
		r.inode, r.err = x.In.GetInode(t, ino)
	case vRead:
		r.data, r.err = x.FileRead(t, ino, req.off, req.n)
	case vWrite:
		r.err = x.FileWrite(t, ino, req.off, req.data)
	case vList:
		r.names, r.err = x.DirList(t, ino)
	}
	return r
}
