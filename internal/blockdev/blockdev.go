// Package blockdev simulates a block storage device and implements the
// paper's driver architecture: "it is almost certainly desirable to give
// each device driver its own, single, thread" which receives request
// messages and waits for interrupts, with "no need for further
// synchronization" (§4). A lock-based multithreaded driver and a buggy
// lockless one are provided as the foil for experiment E8.
//
// The message-passing discipline is the whole interface: Program hands
// the driver one request message, the completion callback is the
// interrupt, and completions are strictly serial FIFO — which is what
// lets a client treat "N completions seen" as a durability horizon.
// Sharded services shard their storage too: the store gives every
// shard its own Disk (a disk-array stripe), so device queues never
// couple independent shards. Regions, Trim, injected write failures
// and power-cut snapshots (SnapshotData/NewDiskFrom) are the substrate
// for log compaction, replication and every crash-recovery test. A
// committed block is immutable: a read lends the platter's own buffer,
// and a write that gives its buffer (Give) commits it uncopied, or the
// identical block of the disk it shares from (ShareFrom). Other writes
// stage into a buffer an earlier write retired, so a warm device moves
// blocks without allocating; a lent buffer is never retired.
package blockdev

import (
	"bytes"
	"fmt"

	"chanos/internal/baseline"
	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
)

// Op is a block operation.
type Op int

// Block operations.
const (
	Read Op = iota
	Write
)

// Request asks the driver to move one block. Reply receives a Result.
type Request struct {
	Op    Op
	Block int
	Data  []byte // payload for writes
	// Give hands a write's buffer to the disk instead of having it
	// copied: Data[:BlockSize] becomes the block at completion, its
	// bytes past len(Data) zeroed (a buffer of less than a block's
	// capacity is copied). The caller may keep reading the buffer but
	// must never write to it again. A disk that shares from a source
	// (ShareFrom) may commit the source's identical block instead, so
	// the block a given write leaves is its Result's Data.
	Give  bool
	Reply *core.Chan
}

// MsgBytes implements core.Sized: requests carry their payload.
func (r Request) MsgBytes() int { return 48 + len(r.Data) }

// Result is the driver's answer. A read's Data is the platter's own
// block, lent read-only: it never changes, and a reader that means to
// write to it copies it first. A given write's Data is the buffer the
// block now holds, the given one or the source's identical block
// (ShareFrom), read-only the same way; other writes carry none.
type Result struct {
	OK   bool
	Err  string
	Data []byte // payload for reads and given writes
}

// MsgBytes implements core.Sized.
func (r Result) MsgBytes() int { return 32 + len(r.Data) }

// DiskParams holds the latency model.
type DiskParams struct {
	NumBlocks    int
	BlockSize    int
	AccessCycles uint64 // fixed cost per request (controller + media)
	CyclesPerByt uint64 // transfer cost per byte
	IRQCycles    uint64 // interrupt dispatch cost charged to the driver
}

// Region names a contiguous run of blocks [Start, Start+Blocks) — the
// unit a log-structured client (the store) allocates, compacts into and
// retires. The device itself is flat; a Region is bookkeeping the owner
// carries, but it lives here so every region user agrees on the math.
type Region struct {
	Start  int
	Blocks int
}

// End returns the first block past the region.
func (r Region) End() int { return r.Start + r.Blocks }

// Contains reports whether block b falls inside the region.
func (r Region) Contains(b int) bool { return b >= r.Start && b < r.End() }

// DefaultDiskParams models an SSD-class device on the 2 GHz machine:
// ~50 µs access, ~500 MB/s transfer, 1 µs interrupt dispatch.
func DefaultDiskParams(blocks int) DiskParams {
	return DiskParams{
		NumBlocks:    blocks,
		BlockSize:    4096,
		AccessCycles: 100_000,
		CyclesPerByt: 4,
		IRQCycles:    2_000,
	}
}

// Disk is the simulated medium: strictly serial, interrupt on completion.
type Disk struct {
	rt *core.Runtime
	P  DiskParams

	data      map[int]platterBlock
	busyUntil sim.Time

	// Register-programming hazard model: the device's request registers
	// are a critical resource; two threads programming them concurrently
	// (within a programming window, without serialisation) corrupt state.
	progWindowEnd sim.Time
	progOwner     int // thread id, -1 when idle

	// failWrites makes the next N write completions fail without
	// committing data (deterministic fault injection).
	failWrites int

	// complete carries every programmed operation to its completion.
	complete *sim.Relay[progOp]

	// spare holds block buffers of the disk's own that no block holds
	// any more — the one a committed write replaced, or a failed
	// write's staged copy — for the next writes to stage into (see
	// stage and recycle).
	spare sim.BufList[byte]

	// src is the disk whose identical blocks a given write commits
	// instead of its own buffer (ShareFrom); nil shares nothing.
	src *Disk

	// Stats.
	Reads, Writes uint64
	BytesMoved    uint64
	Hazards       uint64
	WriteFailures uint64
	Trims         uint64
}

// platterBlock is one committed block. own marks a buffer the disk
// staged itself and never lent (read, or given by a write), the only
// kind recycle keeps.
type platterBlock struct {
	buf []byte
	own bool
}

// NewDisk creates an empty disk.
func NewDisk(rt *core.Runtime, p DiskParams) *Disk {
	if p.NumBlocks <= 0 || p.BlockSize <= 0 {
		panic("blockdev: bad disk geometry")
	}
	d := &Disk{rt: rt, P: p, data: make(map[int]platterBlock), progOwner: -1}
	d.complete = sim.NewRelay(rt.Eng, d.finish)
	return d
}

// NewDiskFrom creates a disk whose initial contents are data — platters
// carried over from a previous life (see SnapshotData), e.g. to reboot a
// crashed machine's storage into a fresh simulation for recovery.
func NewDiskFrom(rt *core.Runtime, p DiskParams, data map[int][]byte) *Disk {
	d := NewDisk(rt, p)
	for blk, buf := range detmap.Sorted(data) {
		d.data[blk] = platterBlock{buf: append([]byte(nil), buf...), own: true}
	}
	return d
}

// SnapshotData deep-copies the disk's committed contents as they stand
// at this instant. Writes still in flight (their completion event not
// yet fired) are absent — exactly what a power cut would leave behind.
func (d *Disk) SnapshotData() map[int][]byte {
	out := make(map[int][]byte, len(d.data))
	for blk, b := range detmap.Sorted(d.data) {
		out[blk] = append([]byte(nil), b.buf...)
	}
	return out
}

// ShareFrom makes a given write commit src's block at the same number
// instead of the given buffer when the two hold the same bytes and src
// lent or was given that block, so never recycles it. The adopted
// block is not this disk's own either, so it never changes. A
// replica's disk shares from its primary's, whose sealed blocks it
// writes again byte for byte. This disk only reads src; a later call
// replaces it, and nil stops the sharing.
func (d *Disk) ShareFrom(src *Disk) { d.src = src }

// adopt returns the block a given write of buf to block commits: src's
// identical block when ShareFrom allows it, else buf itself.
func (d *Disk) adopt(block int, buf []byte) []byte {
	if d.src != nil {
		if b, ok := d.src.data[block]; ok && !b.own && bytes.Equal(b.buf, buf) {
			return b.buf
		}
	}
	return buf
}

// InjectWriteFailures makes the next n write completions report failure
// with nothing committed to the media — the deterministic stand-in for a
// bad sector or a controller fault, used by crash-consistency tests.
// Completions are strictly serial, so "next n" is unambiguous.
func (d *Disk) InjectWriteFailures(n int) { d.failWrites += n }

// Trim discards the committed contents of blocks [start, start+count):
// a metadata-only operation (instant, like an SSD TRIM/DISCARD), after
// which reads of those blocks return zeroes. The store uses it to retire
// a compacted log region.
func (d *Disk) Trim(start, count int) {
	for b := start; b < start+count; b++ {
		delete(d.data, b)
	}
	d.Trims++
}

// progWindow is how long programming a request takes: reading the free
// submission slot, building the scatter-gather list, writing the
// registers, ringing the doorbell. Another thread entering this window
// unserialised corrupts the submission state.
const progWindow = 600

// Program models thread t writing the device's request registers and
// starting the operation; done is invoked (engine context) at completion
// with the result. Concurrent programming by two threads is detected and
// counted as a hazard; the losing request is corrupted (fails). A write
// longer than a block fails the same way an out-of-range block does,
// and leaves the block as it was.
//
// A write's data is captured at submit and committed at completion: the
// BlockSize buffer it is staged into here, or a given buffer itself,
// becomes the block when the write completes, so the caller may reuse
// req.Data as soon as Program returns unless it gave it, and a power cut
// before the completion (SnapshotData) sees the block's prior contents.
// The stage is a buffer an earlier write retired when one is spare
// (stage), and completions ride the disk's relay, so a caller whose
// done func is bound once programs a warm device without allocating.
// A read completes with the platter's own block (Result).
func (d *Disk) Program(t *core.Thread, req Request, done func(Result)) {
	now := d.rt.Eng.Now()
	hazard := now < d.progWindowEnd && d.progOwner != t.ID()
	d.progOwner = t.ID()
	d.progWindowEnd = now + progWindow
	t.Compute(progWindow)

	if hazard {
		d.Hazards++
		d.complete.After(d.P.AccessCycles, progOp{done: done,
			res: Result{OK: false, Err: "device register corruption (concurrent programming)"}})
		return
	}
	if req.Block < 0 || req.Block >= d.P.NumBlocks {
		d.complete.After(100, progOp{done: done,
			res: Result{OK: false, Err: fmt.Sprintf("block %d out of range", req.Block)}})
		return
	}
	if req.Op == Write && len(req.Data) > d.P.BlockSize {
		d.complete.After(100, progOp{done: done,
			res: Result{OK: false, Err: fmt.Sprintf("write of %d bytes exceeds the %d-byte block", len(req.Data), d.P.BlockSize)}})
		return
	}

	bytes := uint64(d.P.BlockSize)
	cost := d.P.AccessCycles + bytes*d.P.CyclesPerByt
	start := d.rt.Eng.Now()
	if d.busyUntil > start {
		start = d.busyUntil // device is serial: queue behind current op
	}
	end := start + cost
	d.busyUntil = end

	// Capture a write's data at submit; finish commits it at completion.
	op := progOp{op: req.Op, block: req.Block, done: done}
	if req.Op == Write {
		op.data = d.stage(req)
	}
	d.complete.At(end, op)
}

// spareBlocks caps the disk's spare buffers: a steady write stream
// retires one buffer per commit and stages one per write, so a handful
// covers the writes in flight, and a burst's backlog is not kept.
const spareBlocks = 4

// stage makes a write's block: a given buffer as it is, or a copy of
// the data in a block buffer of the disk's own, a spare one, which Put
// cleared, or a new one when none is spare.
func (d *Disk) stage(req Request) platterBlock {
	if req.Give && cap(req.Data) >= d.P.BlockSize {
		buf := req.Data[:d.P.BlockSize]
		clear(buf[len(req.Data):])
		return platterBlock{buf: buf}
	}
	buf := d.spare.Get()
	if buf == nil {
		buf = make([]byte, d.P.BlockSize)
	}
	buf = buf[:d.P.BlockSize]
	copy(buf, req.Data)
	return platterBlock{buf: buf, own: true}
}

// recycle offers b, which no block holds any more, to the spare list if
// the buffer is the disk's own and was never lent. Snapshots and
// NewDiskFrom copy. A carried-over buffer of another length is left to
// the garbage collector, as is a trimmed block's.
func (d *Disk) recycle(b platterBlock) {
	if b.own && len(b.buf) == d.P.BlockSize {
		d.spare.Put(b.buf, spareBlocks)
	}
}

// progOp is one programmed operation on its way to completion: a write
// carries its staged block, and an operation refused at programming
// time carries its failed result (res.Err set).
type progOp struct {
	op    Op
	block int
	data  platterBlock
	res   Result
	done  func(Result)
}

// finish is the completion interrupt: it moves the data and hands the
// result to the operation's done func. A read lends the block's buffer,
// which marks it no longer the disk's own. A given write (a block not
// the disk's own) commits its source's identical block when there is
// one (adopt), dropping the given buffer, and answers with the block.
func (d *Disk) finish(p progOp) {
	if p.res.Err != "" {
		p.done(p.res)
		return
	}
	var res Result
	switch p.op {
	case Read:
		b, ok := d.data[p.block]
		if !ok {
			b.buf = make([]byte, d.P.BlockSize)
		} else if b.own {
			d.data[p.block] = platterBlock{buf: b.buf}
		}
		res = Result{OK: true, Data: b.buf}
		d.Reads++
	case Write:
		if d.failWrites > 0 {
			d.failWrites--
			d.WriteFailures++
			d.recycle(p.data)
			p.done(Result{OK: false, Err: "injected write failure"})
			return
		}
		d.recycle(d.data[p.block])
		res = Result{OK: true}
		if !p.data.own {
			p.data.buf = d.adopt(p.block, p.data.buf)
			res.Data = p.data.buf
		}
		d.data[p.block] = p.data
		d.Writes++
	}
	d.BytesMoved += uint64(d.P.BlockSize)
	p.done(res)
}

// Driver is the paper's design: one thread owns the device; requests
// queue on its channel; the loop is "simple active procedural code, with
// no need for further synchronization except to wait for interrupts".
type Driver struct {
	rt   *core.Runtime
	disk *Disk
	// In receives Requests. Queue depth is the channel capacity.
	In *core.Chan

	Ops uint64
}

// NewDriver starts the driver thread on the given core.
func NewDriver(rt *core.Runtime, disk *Disk, queueDepth, coreID int) *Driver {
	d := &Driver{rt: rt, disk: disk, In: rt.NewChan("driver.in", queueDepth)}
	rt.Boot("driver", func(t *core.Thread) {
		irq := rt.NewChan("driver.irq", 4)
		for {
			v, ok := d.In.Recv(t)
			if !ok {
				return
			}
			req := v.(Request)
			disk.Program(t, req, func(res Result) {
				rt.InjectSend(irq, res, t.Core())
			})
			rv, _ := irq.Recv(t) // wait for the interrupt
			t.Compute(disk.P.IRQCycles)
			d.Ops++
			if req.Reply != nil {
				req.Reply.Send(t, rv)
			}
		}
	}, core.OnCore(coreID))
	return d
}

// SubmitSync performs a request and waits for the result.
func (d *Driver) SubmitSync(t *core.Thread, op Op, block int, data []byte) Result {
	reply := t.NewChan("io.reply", 1)
	d.In.Send(t, Request{Op: op, Block: block, Data: data, Reply: reply})
	v, _ := reply.Recv(t)
	return v.(Result)
}

// Stop closes the request queue.
func (d *Driver) Stop(t *core.Thread) { d.In.Close(t) }

// LockedDriver is the conventional foil: several kernel worker threads
// service a shared request queue, serialising access to the device
// registers with a lock (correct but contended), or racing on them when
// Locked is false (the "fertile source of driver bugs").
type LockedDriver struct {
	rt   *core.Runtime
	disk *Disk
	In   *core.Chan
	lock baseline.Lock

	Locked bool
	Ops    uint64
}

// NewLockedDriver starts `workers` driver threads on the given cores.
func NewLockedDriver(rt *core.Runtime, disk *Disk, queueDepth, workers int, cores []int, locked bool) *LockedDriver {
	d := &LockedDriver{
		rt:     rt,
		disk:   disk,
		In:     rt.NewChan("lockdriver.in", queueDepth),
		lock:   baseline.NewMCSLock(rt),
		Locked: locked,
	}
	for i := 0; i < workers; i++ {
		coreID := cores[i%len(cores)]
		name := fmt.Sprintf("lockdriver.%d", i)
		rt.Boot(name, func(t *core.Thread) {
			irq := rt.NewChan(name+".irq", 4)
			for {
				v, ok := d.In.Recv(t)
				if !ok {
					return
				}
				req := v.(Request)
				if d.Locked {
					d.lock.Acquire(t)
				}
				disk.Program(t, req, func(res Result) {
					rt.InjectSend(irq, res, t.Core())
				})
				if d.Locked {
					// Registers are programmed; the lock can drop while
					// the media works.
					d.lock.Release(t)
				}
				rv, _ := irq.Recv(t)
				t.Compute(disk.P.IRQCycles)
				d.Ops++
				if req.Reply != nil {
					req.Reply.Send(t, rv)
				}
			}
		}, core.OnCore(coreID))
	}
	return d
}

// SubmitSync performs a request and waits for the result.
func (d *LockedDriver) SubmitSync(t *core.Thread, op Op, block int, data []byte) Result {
	reply := t.NewChan("io.reply", 1)
	d.In.Send(t, Request{Op: op, Block: block, Data: data, Reply: reply})
	v, _ := reply.Recv(t)
	return v.(Result)
}
