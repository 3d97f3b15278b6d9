// Package vfs implements the paper's file-system architecture (§4): "the
// file system could be structured so that every vnode is its own thread,
// which communicates with other threads that administer cylinder groups
// and free-maps and so forth."
//
// The on-disk layout (superblock, inode table, cylinder groups with
// per-group bitmaps, directory blocks) and the operation logic are shared
// by three frontends:
//
//   - MsgFS: vnode-per-thread, cylinder-group allocator threads, sharded
//     buffer-cache threads — the paper's design.
//   - BigLockFS: one giant lock around everything (early-SMP style).
//   - ShardLockFS: per-vnode and per-structure locks (the "great effort"
//     design).
//
// All three sit on the same simulated disk driver, so experiments compare
// concurrency architecture, not storage stacks.
package vfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chanos/internal/core"
)

// Filesystem geometry constants.
const (
	Magic      = 0xC4A0_05F5
	BlockSize  = 4096
	InodeSize  = 64
	InodesPerB = BlockSize / InodeSize
	DirentSize = 64
	DirentsPB  = BlockSize / DirentSize
	NDirect    = 12
	MaxName    = 59
	// CGSize is blocks per cylinder group: 1 bitmap block + data blocks.
	CGSize = 64

	// RootIno is the root directory's inode number (0 is reserved).
	RootIno = 1
)

// File modes.
const (
	ModeFree = 0
	ModeFile = 1
	ModeDir  = 2
)

// Errors returned by filesystem operations.
var (
	ErrNotFound = errors.New("vfs: not found")
	ErrExists   = errors.New("vfs: already exists")
	ErrNoSpace  = errors.New("vfs: no space")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrTooBig   = errors.New("vfs: file too big")
	ErrNameLen  = errors.New("vfs: name too long")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrBadIno   = errors.New("vfs: bad inode number")
)

// Super is the superblock (block 0).
type Super struct {
	Magic       uint32
	NBlocks     uint32
	NInodes     uint32
	InodeStart  uint32
	InodeBlocks uint32
	CGCount     uint32
	DataStart   uint32
}

func (s *Super) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], s.Magic)
	le.PutUint32(b[4:], s.NBlocks)
	le.PutUint32(b[8:], s.NInodes)
	le.PutUint32(b[12:], s.InodeStart)
	le.PutUint32(b[16:], s.InodeBlocks)
	le.PutUint32(b[20:], s.CGCount)
	le.PutUint32(b[24:], s.DataStart)
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

// Inode is the 64-byte on-disk inode.
type Inode struct {
	Mode   uint16
	Nlink  uint16
	Size   uint32
	Direct [NDirect]uint32
}

func (in *Inode) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], in.Mode)
	le.PutUint16(b[2:], in.Nlink)
	le.PutUint32(b[4:], in.Size)
	for i, d := range in.Direct {
		le.PutUint32(b[8+4*i:], d)
	}
}

func decodeInode(b []byte) Inode {
	le := binary.LittleEndian
	var in Inode
	in.Mode = le.Uint16(b[0:])
	in.Nlink = le.Uint16(b[2:])
	in.Size = le.Uint32(b[4:])
	for i := range in.Direct {
		in.Direct[i] = le.Uint32(b[8+4*i:])
	}
	return in
}

// dirent is the 64-byte directory entry: ino(4) nameLen(1) name(<=59).
type dirent struct {
	ino  uint32
	name string
}

func encodeDirent(b []byte, d dirent) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], d.ino)
	b[4] = byte(len(d.name))
	copy(b[5:5+MaxName], d.name)
}

func decodeDirent(b []byte) dirent {
	le := binary.LittleEndian
	n := int(b[4])
	if n > MaxName {
		n = MaxName
	}
	return dirent{ino: le.Uint32(b[0:]), name: string(b[5 : 5+n])}
}

// BlockStore abstracts cached block access so the same operation logic
// runs under every frontend. Implementations own consistency (a vnode
// thread, or a caller holding locks).
type BlockStore interface {
	ReadBlock(t *core.Thread, blk int) []byte
	WriteBlock(t *core.Thread, blk int, data []byte)
}

// Geometry computes a layout for a disk with nBlocks blocks and returns
// the superblock. nInodes 0 picks a default of one inode per 4 data
// blocks (min 64).
func Geometry(nBlocks, nInodes int) (Super, error) {
	if nBlocks < 16 {
		return Super{}, fmt.Errorf("vfs: disk too small (%d blocks)", nBlocks)
	}
	if nInodes <= 0 {
		nInodes = nBlocks / 4
	}
	if nInodes < 64 {
		nInodes = 64
	}
	inodeBlocks := (nInodes + InodesPerB - 1) / InodesPerB
	dataStart := 1 + inodeBlocks
	remaining := nBlocks - dataStart
	cgCount := remaining / CGSize
	if cgCount < 1 {
		return Super{}, fmt.Errorf("vfs: no room for cylinder groups")
	}
	return Super{
		Magic:       Magic,
		NBlocks:     uint32(nBlocks),
		NInodes:     uint32(nInodes),
		InodeStart:  1,
		InodeBlocks: uint32(inodeBlocks),
		CGCount:     uint32(cgCount),
		DataStart:   uint32(dataStart),
	}, nil
}

// cgBitmapBlock returns the absolute block number of cylinder group cg's
// bitmap.
func (s *Super) cgBitmapBlock(cg int) int {
	return int(s.DataStart) + cg*CGSize
}

// cgDataBlock maps (cg, idx) to an absolute data block (idx in
// [0, CGSize-2]).
func (s *Super) cgDataBlock(cg, idx int) int {
	return s.cgBitmapBlock(cg) + 1 + idx
}

// cgOf returns which cylinder group an absolute data block belongs to,
// and its index within the group.
func (s *Super) cgOf(blk int) (cg, idx int, err error) {
	rel := blk - int(s.DataStart)
	if rel < 0 {
		return 0, 0, fmt.Errorf("vfs: block %d below data area", blk)
	}
	cg = rel / CGSize
	within := rel % CGSize
	if within == 0 {
		return 0, 0, fmt.Errorf("vfs: block %d is a bitmap block", blk)
	}
	if cg >= int(s.CGCount) {
		return 0, 0, fmt.Errorf("vfs: block %d beyond last cylinder group", blk)
	}
	return cg, within - 1, nil
}

// inodeLoc returns the block and byte offset holding inode ino.
func (s *Super) inodeLoc(ino int) (blk, off int, err error) {
	if ino <= 0 || ino >= int(s.NInodes) {
		return 0, 0, ErrBadIno
	}
	return int(s.InodeStart) + ino/InodesPerB, (ino % InodesPerB) * InodeSize, nil
}

// Mkfs formats the store: writes the superblock, zeroes the inode table
// and bitmaps, and creates the root directory.
func Mkfs(t *core.Thread, st BlockStore, nBlocks, nInodes int) (Super, error) {
	sb, err := Geometry(nBlocks, nInodes)
	if err != nil {
		return Super{}, err
	}
	buf := make([]byte, BlockSize)
	sb.encode(buf)
	st.WriteBlock(t, 0, buf)
	zero := make([]byte, BlockSize)
	for b := 0; b < int(sb.InodeBlocks); b++ {
		st.WriteBlock(t, int(sb.InodeStart)+b, zero)
	}
	for cg := 0; cg < int(sb.CGCount); cg++ {
		st.WriteBlock(t, sb.cgBitmapBlock(cg), zero)
	}
	// Root directory: inode RootIno, no blocks yet (empty dir).
	root := Inode{Mode: ModeDir, Nlink: 1}
	if err := WriteInode(t, st, &sb, RootIno, root); err != nil {
		return Super{}, err
	}
	return sb, nil
}
