package vfs

import (
	"chanos/internal/blockdev"
	"chanos/internal/core"
)

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
