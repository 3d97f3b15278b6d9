package vfs

import (
	"strings"

	"chanos/internal/blockdev"
	"chanos/internal/core"
)

// FS is the client-facing filesystem interface implemented by every
// frontend (MsgFS, BigLock/ShardLock LockFS). Paths are slash-separated
// and absolute ("/a/b/c").
type FS interface {
	Lookup(t *core.Thread, path string) (int, error)
	Create(t *core.Thread, path string) (int, error)
	Mkdir(t *core.Thread, path string) (int, error)
	Unlink(t *core.Thread, path string) error
	Stat(t *core.Thread, path string) (Inode, error)
	Read(t *core.Thread, path string, off, n int) ([]byte, error)
	Write(t *core.Thread, path string, off int, data []byte) error
	ReadDir(t *core.Thread, path string) ([]string, error)
}

// splitPath breaks an absolute path into components; "/" yields nil.
func splitPath(p string) ([]string, error) {
	if !strings.HasPrefix(p, "/") {
		return nil, ErrNotFound
	}
	var out []string
	for _, c := range strings.Split(p, "/") {
		if c == "" || c == "." {
			continue
		}
		if len(c) > MaxName {
			return nil, ErrNameLen
		}
		out = append(out, c)
	}
	return out, nil
}

// splitParent returns the parent components and the final name.
func splitParent(p string) (parent []string, name string, err error) {
	comps, err := splitPath(p)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", ErrExists // operating on "/"
	}
	return comps[:len(comps)-1], comps[len(comps)-1], nil
}

// Format writes a fresh filesystem through the driver (direct, uncached)
// and returns its superblock. Call once from a setup thread before
// constructing a frontend.
func Format(t *core.Thread, drv *blockdev.Driver, nBlocks, nInodes int) (Super, error) {
	st := driverStore{drv: drv}
	return Mkfs(t, st, nBlocks, nInodes)
}

// driverStore is an uncached BlockStore straight over the driver.
type driverStore struct {
	drv *blockdev.Driver
}

func (d driverStore) ReadBlock(t *core.Thread, blk int) []byte {
	res := d.drv.SubmitSync(t, blockdev.Read, blk, nil)
	if !res.OK || res.Data == nil {
		return make([]byte, BlockSize)
	}
	// The read lends the platter's own block; callers write into
	// theirs.
	return append([]byte(nil), res.Data...)
}

func (d driverStore) WriteBlock(t *core.Thread, blk int, data []byte) {
	d.drv.SubmitSync(t, blockdev.Write, blk, data)
}
