package vfs

import (
	"chanos/internal/core"
)

// bitmapAlloc is the allocation logic shared by every frontend: free
// data blocks tracked in per-cylinder-group bitmaps, free inodes found by
// scanning the inode table (with a rotating cursor). The message frontend
// runs its block side inside cylinder-group administrator threads and its
// inode side inside the free-map thread; the lock frontends run it inline
// under locks.
type bitmapAlloc struct {
	sb          *Super
	st          BlockStore
	ist         InodeStore // inode claims must use atomic per-inode RMW
	cursorCG    int
	inodeCursor int

	// Stats.
	BlocksAllocated uint64
	BlocksFreed     uint64
	InodesAllocated uint64
	InodesFreed     uint64
}

// newBitmapAlloc allocates over st's bitmaps, claiming inodes through
// ist so that inode-table read-modify-writes stay atomic with respect to
// concurrent vnode updates in the same block. An allocator that only
// allocates blocks takes a nil ist.
func newBitmapAlloc(sb *Super, st BlockStore, ist InodeStore) *bitmapAlloc {
	return &bitmapAlloc{sb: sb, st: st, ist: ist, inodeCursor: RootIno + 1}
}

// allocInCG tries to allocate one data block within cylinder group cg.
func (a *bitmapAlloc) allocInCG(t *core.Thread, cg int) (int, bool) {
	bmBlk := a.sb.cgBitmapBlock(cg)
	bm := a.st.ReadBlock(t, bmBlk)
	for idx := 0; idx < CGSize-1; idx++ {
		byteI, bitI := idx/8, uint(idx%8)
		if bm[byteI]&(1<<bitI) == 0 {
			bm[byteI] |= 1 << bitI
			a.st.WriteBlock(t, bmBlk, bm)
			a.BlocksAllocated++
			return a.sb.cgDataBlock(cg, idx), true
		}
	}
	return 0, false
}

// AllocBlock implements Alloc.
func (a *bitmapAlloc) AllocBlock(t *core.Thread, hintCG int) (int, error) {
	n := int(a.sb.CGCount)
	start := a.cursorCG
	if hintCG >= 0 && hintCG < n {
		start = hintCG
	}
	for i := 0; i < n; i++ {
		cg := (start + i) % n
		if blk, ok := a.allocInCG(t, cg); ok {
			a.cursorCG = cg
			return blk, nil
		}
	}
	return 0, ErrNoSpace
}

// FreeBlock implements Alloc.
func (a *bitmapAlloc) FreeBlock(t *core.Thread, blk int) {
	cg, idx, err := a.sb.cgOf(blk)
	if err != nil {
		return // double free of a non-data block: ignore, count nothing
	}
	bmBlk := a.sb.cgBitmapBlock(cg)
	bm := a.st.ReadBlock(t, bmBlk)
	byteI, bitI := idx/8, uint(idx%8)
	if bm[byteI]&(1<<bitI) != 0 {
		bm[byteI] &^= 1 << bitI
		a.st.WriteBlock(t, bmBlk, bm)
		a.BlocksFreed++
	}
}

// AllocInode implements Alloc: scan from the cursor for a free slot and
// claim it immediately (mode set to a placeholder so a subsequent scan
// cannot hand it out twice).
func (a *bitmapAlloc) AllocInode(t *core.Thread) (int, error) {
	n := int(a.sb.NInodes)
	for i := 0; i < n-1; i++ {
		ino := a.inodeCursor + i
		if ino >= n {
			ino = ino - n + RootIno // wrap past reserved inodes
		}
		if ino <= RootIno {
			continue
		}
		in, err := a.ist.GetInode(t, ino)
		if err != nil {
			return 0, err
		}
		if in.Mode == ModeFree {
			if err := a.ist.PutInode(t, ino, Inode{Mode: ModeFile}); err != nil {
				return 0, err
			}
			a.inodeCursor = ino + 1
			if a.inodeCursor >= n {
				a.inodeCursor = RootIno + 1
			}
			a.InodesAllocated++
			return ino, nil
		}
	}
	return 0, ErrNoSpace
}

// FreeInode implements Alloc.
func (a *bitmapAlloc) FreeInode(t *core.Thread, ino int) {
	if err := a.ist.PutInode(t, ino, Inode{}); err == nil {
		a.InodesFreed++
	}
}
