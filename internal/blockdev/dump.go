package blockdev

import (
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
)

// BlockSnapshot is one committed block's platter contents ([]byte
// marshals as base64 in the dump JSON).
type BlockSnapshot struct {
	Block int    `json:"block"`
	Data  []byte `json:"data"`
}

// DiskSnapshot is one device's full state as captured into a machine
// core dump: geometry, the serial queue horizon, armed fault
// injection, stats, and every committed block sorted by number.
// Writes still in flight are absent, exactly like SnapshotData — the
// dump shows what a power cut at this instant would leave.
type DiskSnapshot struct {
	NumBlocks int      `json:"num_blocks"`
	BlockSize int      `json:"block_size"`
	BusyUntil sim.Time `json:"busy_until"`

	Reads         uint64 `json:"reads"`
	Writes        uint64 `json:"writes"`
	BytesMoved    uint64 `json:"bytes_moved"`
	Hazards       uint64 `json:"hazards"`
	WriteFailures uint64 `json:"write_failures"`
	Trims         uint64 `json:"trims"`

	FailWritesArmed int `json:"fail_writes_armed,omitempty"`

	Blocks []BlockSnapshot `json:"blocks"`
}

// Snapshot captures the disk deterministically (blocks sorted). The
// contents are deep-copied, so the snapshot stays stable while the
// simulation continues.
func (d *Disk) Snapshot() DiskSnapshot {
	s := DiskSnapshot{
		NumBlocks:       d.P.NumBlocks,
		BlockSize:       d.P.BlockSize,
		BusyUntil:       d.busyUntil,
		Reads:           d.Reads,
		Writes:          d.Writes,
		BytesMoved:      d.BytesMoved,
		Hazards:         d.Hazards,
		WriteFailures:   d.WriteFailures,
		Trims:           d.Trims,
		FailWritesArmed: d.failWrites,
	}
	for _, b := range detmap.Keys(d.data) {
		s.Blocks = append(s.Blocks, BlockSnapshot{Block: b, Data: append([]byte(nil), d.data[b].buf...)})
	}
	return s
}
