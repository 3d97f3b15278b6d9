package blockdev

import (
	"bytes"
	"strings"
	"testing"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

func newRT(t *testing.T, cores int) *core.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: 29})
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestDriverReadWriteRoundTrip(t *testing.T) {
	rt := newRT(t, 4)
	disk := NewDisk(rt, DefaultDiskParams(128))
	drv := NewDriver(rt, disk, 16, 1)
	var readBack []byte
	rt.Boot("app", func(th *core.Thread) {
		payload := bytes.Repeat([]byte{0xAB}, 4096)
		w := drv.SubmitSync(th, Write, 7, payload)
		if !w.OK {
			t.Errorf("write failed: %s", w.Err)
		}
		r := drv.SubmitSync(th, Read, 7, nil)
		if !r.OK {
			t.Errorf("read failed: %s", r.Err)
		}
		readBack = r.Data
		drv.Stop(th)
	})
	rt.Run()
	if len(readBack) != 4096 || readBack[0] != 0xAB || readBack[4095] != 0xAB {
		t.Fatal("read did not return written data")
	}
	if disk.Reads != 1 || disk.Writes != 1 {
		t.Fatalf("disk counters: %d reads %d writes", disk.Reads, disk.Writes)
	}
}

func TestUnwrittenBlockReadsZero(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	drv := NewDriver(rt, disk, 4, 0)
	var data []byte
	rt.Boot("app", func(th *core.Thread) {
		r := drv.SubmitSync(th, Read, 3, nil)
		data = r.Data
		drv.Stop(th)
	})
	rt.Run()
	for _, b := range data {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

// TestInjectWriteFailures: an injected failure must report an error,
// commit nothing to the media, and clear itself for the next write —
// and only committed writes count in the Writes stat (crash tests rely
// on that equality).
func TestInjectWriteFailures(t *testing.T) {
	rt := newRT(t, 4)
	disk := NewDisk(rt, DefaultDiskParams(32))
	drv := NewDriver(rt, disk, 8, 1)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	var failed, readBack, retried Result
	rt.Boot("app", func(th *core.Thread) {
		disk.InjectWriteFailures(1)
		failed = drv.SubmitSync(th, Write, 3, payload)
		readBack = drv.SubmitSync(th, Read, 3, nil)
		retried = drv.SubmitSync(th, Write, 3, payload)
		drv.Stop(th)
	})
	rt.Run()
	if failed.OK || failed.Err == "" {
		t.Fatalf("injected failure not reported: %+v", failed)
	}
	if !readBack.OK || readBack.Data[0] != 0 {
		t.Fatal("failed write committed data")
	}
	if !retried.OK {
		t.Fatalf("write after injection window failed: %+v", retried)
	}
	if disk.Writes != 1 || disk.WriteFailures != 1 {
		t.Fatalf("stats: %d writes, %d failures", disk.Writes, disk.WriteFailures)
	}
}

// TestTrimDiscards: trimmed blocks read back as zeroes, like a fresh
// device — retiring a compacted log region must leave no stale bytes.
func TestTrimDiscards(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	drv := NewDriver(rt, disk, 4, 0)
	var before, after Result
	rt.Boot("app", func(th *core.Thread) {
		drv.SubmitSync(th, Write, 5, bytes.Repeat([]byte{0xEE}, 4096))
		before = drv.SubmitSync(th, Read, 5, nil)
		disk.Trim(4, 4)
		after = drv.SubmitSync(th, Read, 5, nil)
		drv.Stop(th)
	})
	rt.Run()
	if before.Data[0] != 0xEE {
		t.Fatal("write did not commit")
	}
	if after.Data[0] != 0 || disk.Trims != 1 {
		t.Fatalf("trim left data behind (first byte %x, %d trims)", after.Data[0], disk.Trims)
	}
}

func TestRegionMath(t *testing.T) {
	r := Region{Start: 9, Blocks: 16}
	if r.End() != 25 || !r.Contains(9) || !r.Contains(24) || r.Contains(8) || r.Contains(25) {
		t.Fatalf("region math wrong: %+v", r)
	}
}

func TestOutOfRangeBlockFails(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	drv := NewDriver(rt, disk, 4, 0)
	var res Result
	rt.Boot("app", func(th *core.Thread) {
		res = drv.SubmitSync(th, Read, 99, nil)
		drv.Stop(th)
	})
	rt.Run()
	if res.OK {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestIOTakesSimulatedTime(t *testing.T) {
	rt := newRT(t, 2)
	p := DefaultDiskParams(16)
	disk := NewDisk(rt, p)
	drv := NewDriver(rt, disk, 4, 0)
	var elapsed sim.Time
	rt.Boot("app", func(th *core.Thread) {
		start := th.Now()
		drv.SubmitSync(th, Read, 0, nil)
		elapsed = th.Now() - start
		drv.Stop(th)
	})
	rt.Run()
	minCost := p.AccessCycles + uint64(p.BlockSize)*p.CyclesPerByt
	if elapsed < minCost {
		t.Fatalf("I/O took %d cycles, want >= %d", elapsed, minCost)
	}
}

func TestDeviceIsSerial(t *testing.T) {
	rt := newRT(t, 4)
	p := DefaultDiskParams(64)
	disk := NewDisk(rt, p)
	drv := NewDriver(rt, disk, 16, 0)
	var done []sim.Time
	finished := rt.NewChan("fin", 4)
	rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 3; i++ {
			i := i
			th.Spawn("io", func(th2 *core.Thread) {
				drv.SubmitSync(th2, Read, i, nil)
				finished.Send(th2, th2.Now())
			})
		}
		for i := 0; i < 3; i++ {
			v, _ := finished.Recv(th)
			done = append(done, v.(sim.Time))
		}
		drv.Stop(th)
	})
	rt.Run()
	perOp := p.AccessCycles + uint64(p.BlockSize)*p.CyclesPerByt
	// Three serial ops must take at least 3x the single-op media time.
	var maxT sim.Time
	for _, d := range done {
		if d > maxT {
			maxT = d
		}
	}
	if maxT < 3*perOp {
		t.Fatalf("3 serial ops finished at %d, want >= %d", maxT, 3*perOp)
	}
}

func TestSingleThreadDriverNoHazards(t *testing.T) {
	rt := newRT(t, 4)
	disk := NewDisk(rt, DefaultDiskParams(256))
	drv := NewDriver(rt, disk, 32, 0)
	runStorm(t, rt, func(th *core.Thread, blk int) Result {
		return drv.SubmitSync(th, Write, blk, nil)
	}, func(th *core.Thread) { drv.Stop(th) })
	if disk.Hazards != 0 {
		t.Fatalf("single-threaded driver produced %d hazards", disk.Hazards)
	}
}

func TestLockedDriverNoHazards(t *testing.T) {
	rt := newRT(t, 8)
	disk := NewDisk(rt, DefaultDiskParams(256))
	drv := NewLockedDriver(rt, disk, 32, 4, []int{0, 1, 2, 3}, true)
	runStorm(t, rt, func(th *core.Thread, blk int) Result {
		return drv.SubmitSync(th, Write, blk, nil)
	}, func(th *core.Thread) { drv.In.Close(th) })
	if disk.Hazards != 0 {
		t.Fatalf("locked driver produced %d hazards", disk.Hazards)
	}
}

func TestLocklessDriverHasHazards(t *testing.T) {
	rt := newRT(t, 8)
	disk := NewDisk(rt, DefaultDiskParams(256))
	drv := NewLockedDriver(rt, disk, 32, 4, []int{0, 1, 2, 3}, false)
	runStorm(t, rt, func(th *core.Thread, blk int) Result {
		return drv.SubmitSync(th, Write, blk, nil)
	}, func(th *core.Thread) { drv.In.Close(th) })
	if disk.Hazards == 0 {
		t.Fatal("lockless multithreaded driver produced no hazards — race model broken")
	}
}

// runStorm fires 32 concurrent writers at the driver and waits for all.
func runStorm(t *testing.T, rt *core.Runtime, do func(*core.Thread, int) Result, stop func(*core.Thread)) {
	t.Helper()
	finished := rt.NewChan("fin", 32)
	rt.Boot("storm", func(th *core.Thread) {
		for i := 0; i < 32; i++ {
			i := i
			th.Spawn("w", func(th2 *core.Thread) {
				do(th2, i%200)
				finished.Send(th2, 1)
			})
		}
		for i := 0; i < 32; i++ {
			finished.Recv(th)
		}
		stop(th)
	})
	rt.Run()
}

// programSync programs req on disk from th and waits for its completion
// interrupt.
func programSync(rt *core.Runtime, th *core.Thread, disk *Disk, req Request) Result {
	irq := th.NewChan("irq", 1)
	disk.Program(th, req, func(res Result) { rt.InjectSend(irq, res, th.Core()) })
	v, _ := irq.Recv(th)
	return v.(Result)
}

// fill returns a block-sized buffer of b.
func fill(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }

// given returns a buffer with a whole block's capacity holding b.
func given(b ...byte) []byte { return append(make([]byte, 0, 4096), b...) }

// padded returns b zero-padded to a whole block.
func padded(b ...byte) []byte { return append(b, make([]byte, 4096-len(b))...) }

// TestOversizedWriteFails: a write longer than a block fails loudly,
// naming both sizes, and leaves the block as it was — it is never
// silently cut to fit.
func TestOversizedWriteFails(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	var first, over, back Result
	rt.Boot("app", func(th *core.Thread) {
		first = programSync(rt, th, disk, Request{Op: Write, Block: 2, Data: fill(0x11)})
		over = programSync(rt, th, disk, Request{Op: Write, Block: 2, Data: bytes.Repeat([]byte{0x22}, 4097)})
		back = programSync(rt, th, disk, Request{Op: Read, Block: 2})
	})
	rt.Run()
	if !first.OK {
		t.Fatalf("block-sized write failed: %s", first.Err)
	}
	if over.OK || !strings.Contains(over.Err, "4097") || !strings.Contains(over.Err, "4096") {
		t.Fatalf("oversized write = %+v, want a failure naming 4097 and 4096 bytes", over)
	}
	if !bytes.Equal(back.Data, fill(0x11)) || disk.Writes != 1 {
		t.Fatalf("oversized write changed the block (first byte %x, %d writes)", back.Data[0], disk.Writes)
	}
}

// TestSnapshotOmitsInFlightWrite: a write is on the platter only once
// its completion fires, so a power cut before that keeps the old block.
func TestSnapshotOmitsInFlightWrite(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	var during, after map[int][]byte
	rt.Boot("app", func(th *core.Thread) {
		irq := th.NewChan("irq", 1)
		disk.Program(th, Request{Op: Write, Block: 1, Data: fill(0xAA)}, func(res Result) { rt.InjectSend(irq, res, th.Core()) })
		during = disk.SnapshotData()
		irq.Recv(th)
		after = disk.SnapshotData()
	})
	rt.Run()
	if _, ok := during[1]; ok {
		t.Fatal("snapshot taken while the write was in flight holds its block")
	}
	if !bytes.Equal(after[1], fill(0xAA)) {
		t.Fatal("snapshot after the completion lacks the written block")
	}
}

// TestWriteCapturesDataAtSubmit: the caller may reuse req.Data as soon
// as Program returns; the block commits what it held at submit.
func TestWriteCapturesDataAtSubmit(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	var back Result
	rt.Boot("app", func(th *core.Thread) {
		buf := fill(0x33)
		irq := th.NewChan("irq", 1)
		disk.Program(th, Request{Op: Write, Block: 4, Data: buf}, func(res Result) { rt.InjectSend(irq, res, th.Core()) })
		copy(buf, fill(0x44))
		irq.Recv(th)
		back = programSync(rt, th, disk, Request{Op: Read, Block: 4})
	})
	rt.Run()
	if !bytes.Equal(back.Data, fill(0x33)) {
		t.Fatalf("block holds %x..., want the bytes submitted (33)", back.Data[0])
	}
}

// TestInjectedFailureKeepsOldBlock: a failed write commits nothing, so
// the block keeps the contents of the last write that succeeded.
func TestInjectedFailureKeepsOldBlock(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	var failed, back Result
	rt.Boot("app", func(th *core.Thread) {
		programSync(rt, th, disk, Request{Op: Write, Block: 6, Data: fill(0x55)})
		disk.InjectWriteFailures(1)
		failed = programSync(rt, th, disk, Request{Op: Write, Block: 6, Data: fill(0x66)})
		back = programSync(rt, th, disk, Request{Op: Read, Block: 6})
	})
	rt.Run()
	if failed.OK {
		t.Fatal("injected failure reported success")
	}
	if !bytes.Equal(back.Data, fill(0x55)) {
		t.Fatalf("block holds %x... after a failed write, want the old contents (55)", back.Data[0])
	}
}

// TestShortWriteAfterTrimIsZeroPadded: a write shorter than a block
// commits a whole block, its tail zeroes — nothing of the trimmed
// contents survives.
func TestShortWriteAfterTrimIsZeroPadded(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	var back Result
	rt.Boot("app", func(th *core.Thread) {
		programSync(rt, th, disk, Request{Op: Write, Block: 5, Data: fill(0xEE)})
		disk.Trim(5, 1)
		programSync(rt, th, disk, Request{Op: Write, Block: 5, Data: []byte{1, 2, 3}})
		back = programSync(rt, th, disk, Request{Op: Read, Block: 5})
	})
	rt.Run()
	want := make([]byte, 4096)
	copy(want, []byte{1, 2, 3})
	if !bytes.Equal(back.Data, want) {
		t.Fatalf("short write read back as %d bytes starting %x, want 1 2 3 then zeroes to 4096", len(back.Data), back.Data[:4])
	}
}

// TestReadLendsTheCommittedBlock: a read completes with the platter's
// own block, not a copy, and a write that gives its buffer commits that
// buffer as the block. Neither buffer is ever recycled: an overwrite of
// the block, a failed write and a Trim leave the bytes a reader or a
// giver holds as they were, however many writes stage after them.
func TestReadLendsTheCommittedBlock(t *testing.T) {
	// run boots fn and, after it, churn: writes to other blocks, one of
	// which would restage (and so rewrite) a lent buffer if the disk
	// had recycled it.
	run := func(t *testing.T, fn func(rt *core.Runtime, th *core.Thread, disk *Disk)) *Disk {
		t.Helper()
		rt := newRT(t, 2)
		disk := NewDisk(rt, DefaultDiskParams(16))
		rt.Boot("app", func(th *core.Thread) {
			fn(rt, th, disk)
			for b := 10; b < 16; b++ {
				programSync(rt, th, disk, Request{Op: Write, Block: b, Data: fill(0xCC)})
				programSync(rt, th, disk, Request{Op: Write, Block: b, Data: fill(0xCD)})
			}
		})
		rt.Run()
		return disk
	}
	t.Run("overwrite", func(t *testing.T) {
		var first, second Result
		disk := run(t, func(rt *core.Runtime, th *core.Thread, disk *Disk) {
			programSync(rt, th, disk, Request{Op: Write, Block: 7, Data: fill(0x77)})
			first = programSync(rt, th, disk, Request{Op: Read, Block: 7})
			second = programSync(rt, th, disk, Request{Op: Read, Block: 7})
			programSync(rt, th, disk, Request{Op: Write, Block: 7, Data: fill(0x78)})
		})
		if &first.Data[0] != &second.Data[0] {
			t.Fatal("two reads of one block returned two buffers: a read copies the block")
		}
		if !bytes.Equal(first.Data, fill(0x77)) {
			t.Fatalf("a read's block holds %x... after the block was overwritten, want 77", first.Data[0])
		}
		if now := disk.SnapshotData()[7]; !bytes.Equal(now, fill(0x78)) {
			t.Fatalf("block 7 holds %x..., want the overwrite (78)", now[0])
		}
	})

	t.Run("failed write", func(t *testing.T) {
		var lent, failed, failedGive Result
		gave := given(0x55, 0x55)
		disk := run(t, func(rt *core.Runtime, th *core.Thread, disk *Disk) {
			programSync(rt, th, disk, Request{Op: Write, Block: 4, Data: fill(0x44)})
			lent = programSync(rt, th, disk, Request{Op: Read, Block: 4})
			disk.InjectWriteFailures(2)
			failed = programSync(rt, th, disk, Request{Op: Write, Block: 4, Data: fill(0x45)})
			failedGive = programSync(rt, th, disk, Request{Op: Write, Block: 3, Data: gave, Give: true})
		})
		if failed.OK || failedGive.OK {
			t.Fatal("an injected failure reported success")
		}
		if !bytes.Equal(lent.Data, fill(0x44)) {
			t.Fatalf("a read's block holds %x... after a failed overwrite, want 44", lent.Data[0])
		}
		if !bytes.Equal(gave[:4096], padded(0x55, 0x55)) {
			t.Fatal("a failed write's given buffer changed after the failure")
		}
		if snap := disk.SnapshotData(); !bytes.Equal(snap[4], fill(0x44)) || snap[3] != nil {
			t.Fatalf("platter after failed writes: block 4 starts %x (want 44), block 3 present %v (want absent)", snap[4][0], snap[3] != nil)
		}
	})

	t.Run("trim", func(t *testing.T) {
		var lent Result
		run(t, func(rt *core.Runtime, th *core.Thread, disk *Disk) {
			programSync(rt, th, disk, Request{Op: Write, Block: 5, Data: fill(0x55)})
			lent = programSync(rt, th, disk, Request{Op: Read, Block: 5})
			disk.Trim(5, 1)
			programSync(rt, th, disk, Request{Op: Write, Block: 5, Data: fill(0x56)})
		})
		if !bytes.Equal(lent.Data, fill(0x55)) {
			t.Fatalf("a read's block holds %x... after a Trim, want 55", lent.Data[0])
		}
	})

	t.Run("given write", func(t *testing.T) {
		var during, after map[int][]byte
		var back Result
		gave := given(1, 2, 3)
		disk := run(t, func(rt *core.Runtime, th *core.Thread, disk *Disk) {
			programSync(rt, th, disk, Request{Op: Write, Block: 6, Data: fill(0x66)})
			irq := th.NewChan("irq", 1)
			disk.Program(th, Request{Op: Write, Block: 6, Data: gave, Give: true}, func(res Result) { rt.InjectSend(irq, res, th.Core()) })
			during = disk.SnapshotData()
			irq.Recv(th)
			after = disk.SnapshotData()
			back = programSync(rt, th, disk, Request{Op: Read, Block: 6})
			programSync(rt, th, disk, Request{Op: Write, Block: 6, Data: fill(0x67)})
		})
		if !bytes.Equal(during[6], fill(0x66)) {
			t.Fatalf("snapshot during a given write holds %x..., want the prior block (66)", during[6][0])
		}
		if !bytes.Equal(after[6], padded(1, 2, 3)) {
			t.Fatal("a given write did not commit its bytes zero-padded to the block")
		}
		if &back.Data[0] != &gave[0] {
			t.Fatal("a given write's block is a copy, not the given buffer")
		}
		if !bytes.Equal(gave[:4096], padded(1, 2, 3)) {
			t.Fatal("a given buffer changed after its block was overwritten")
		}
		if now := disk.SnapshotData()[6]; !bytes.Equal(now, fill(0x67)) {
			t.Fatalf("block 6 holds %x..., want the overwrite (67)", now[0])
		}
	})
}

// TestRecycledBlockBuffers: a write stages into a buffer that an
// earlier write retired — the block it replaced, or a failed write's
// own stage — so nothing of a buffer's last use may show through, and
// no copy handed out before may change.
func TestRecycledBlockBuffers(t *testing.T) {
	// onSpare runs do once the disk holds a spare buffer, failing the
	// test when it holds none: each case must exercise a recycled stage.
	onSpare := func(t *testing.T, disk *Disk, do func()) {
		t.Helper()
		b := disk.spare.Get()
		if b == nil {
			t.Fatal("no spare buffer to stage into: the case tests nothing")
		}
		disk.spare.Put(b, spareBlocks)
		do()
	}

	t.Run("short write zeroes its tail", func(t *testing.T) {
		rt := newRT(t, 2)
		disk := NewDisk(rt, DefaultDiskParams(16))
		var back Result
		rt.Boot("app", func(th *core.Thread) {
			programSync(rt, th, disk, Request{Op: Write, Block: 1, Data: fill(0xEE)})
			programSync(rt, th, disk, Request{Op: Write, Block: 1, Data: fill(0xDD)})
			onSpare(t, disk, func() {
				programSync(rt, th, disk, Request{Op: Write, Block: 2, Data: []byte{1, 2, 3}})
			})
			back = programSync(rt, th, disk, Request{Op: Read, Block: 2})
		})
		rt.Run()
		want := make([]byte, 4096)
		copy(want, []byte{1, 2, 3})
		if !bytes.Equal(back.Data, want) {
			t.Fatalf("short write read back as %d bytes, first %x, last %x; want 1 2 3 then zeroes to 4096",
				len(back.Data), back.Data[:4], back.Data[len(back.Data)-1])
		}
	})

	t.Run("failed stage never lands", func(t *testing.T) {
		rt := newRT(t, 2)
		disk := NewDisk(rt, DefaultDiskParams(16))
		var failed Result
		rt.Boot("app", func(th *core.Thread) {
			programSync(rt, th, disk, Request{Op: Write, Block: 3, Data: fill(0x55)})
			disk.InjectWriteFailures(1)
			failed = programSync(rt, th, disk, Request{Op: Write, Block: 3, Data: fill(0x66)})
			onSpare(t, disk, func() {
				programSync(rt, th, disk, Request{Op: Write, Block: 4, Data: []byte{9}})
			})
			programSync(rt, th, disk, Request{Op: Write, Block: 5, Data: fill(0x77)})
		})
		rt.Run()
		if failed.OK {
			t.Fatal("injected failure reported success")
		}
		snap := disk.SnapshotData()
		if !bytes.Equal(snap[3], fill(0x55)) {
			t.Fatalf("block 3 holds %x... after its failed write, want the old contents (55)", snap[3][0])
		}
		for blk := 0; blk < disk.P.NumBlocks; blk++ {
			if i := bytes.IndexByte(snap[blk], 0x66); i >= 0 {
				t.Fatalf("block %d holds the failed write's byte 66 at offset %d", blk, i)
			}
		}
		if snap[4][0] != 9 || len(snap[4]) != 4096 {
			t.Fatalf("block 4 = %d bytes starting %x, want 4096 starting 09", len(snap[4]), snap[4][0])
		}
	})

	t.Run("snapshot keeps replaced bytes", func(t *testing.T) {
		rt := newRT(t, 2)
		disk := NewDisk(rt, DefaultDiskParams(16))
		var data map[int][]byte
		var dump DiskSnapshot
		rt.Boot("app", func(th *core.Thread) {
			programSync(rt, th, disk, Request{Op: Write, Block: 5, Data: fill(0x11)})
			data, dump = disk.SnapshotData(), disk.Snapshot()
			programSync(rt, th, disk, Request{Op: Write, Block: 5, Data: fill(0x22)})
			onSpare(t, disk, func() {
				programSync(rt, th, disk, Request{Op: Write, Block: 6, Data: fill(0x33)})
			})
		})
		rt.Run()
		if !bytes.Equal(data[5], fill(0x11)) || !bytes.Equal(dump.Blocks[0].Data, fill(0x11)) {
			t.Fatalf("snapshots taken before the overwrite changed: data %x..., dump %x...", data[5][0], dump.Blocks[0].Data[0])
		}
		if now := disk.SnapshotData(); !bytes.Equal(now[5], fill(0x22)) || !bytes.Equal(now[6], fill(0x33)) {
			t.Fatalf("blocks 5 and 6 hold %x... and %x..., want 22 and 33", now[5][0], now[6][0])
		}
	})

	t.Run("warm rewrite allocates nothing", func(t *testing.T) {
		rt := newRT(t, 2)
		disk := NewDisk(rt, DefaultDiskParams(16))
		buf := fill(0x44)
		writes := 0
		rt.Boot("app", func(th *core.Thread) {
			irq := th.NewChan("irq", 1)
			var last Result
			var wake core.Msg = true
			done := func(res Result) { last = res; rt.InjectSend(irq, wake, th.Core()) }
			for {
				disk.Program(th, Request{Op: Write, Block: 7, Data: buf}, done)
				irq.Recv(th)
				if !last.OK {
					t.Errorf("write %d: %s", writes, last.Err)
					return
				}
				writes++
			}
		})
		const n = 50
		run := func() {
			for target := writes + n; writes < target; {
				if !rt.Eng.Step() {
					t.Fatal("engine ran dry before the writes completed")
				}
			}
		}
		run()
		if per := testing.AllocsPerRun(5, run) / n; per != 0 {
			t.Fatalf("a warm rewrite of one block allocates %.2f, want 0", per)
		}
	})
}

// TestShareFromAdoptsIdenticalBlocks: a disk that shares from a source
// commits the source's block for a given write only when the source
// holds that block number, lent or given (never a buffer it staged
// itself), with the same length and bytes. An adopted block never
// changes, whatever the source later writes, trims or stages at that
// number, and the adopter never recycles it.
func TestShareFromAdoptsIdenticalBlocks(t *testing.T) {
	// run boots fn with a source disk of srcBlockSize-byte blocks and a
	// 4096-byte adopter that shares from it.
	run := func(t *testing.T, srcBlockSize int, fn func(rt *core.Runtime, th *core.Thread, src, dst *Disk)) {
		t.Helper()
		rt := newRT(t, 2)
		sp := DefaultDiskParams(16)
		sp.BlockSize = srcBlockSize
		src, dst := NewDisk(rt, sp), NewDisk(rt, DefaultDiskParams(16))
		dst.ShareFrom(src)
		rt.Boot("app", func(th *core.Thread) { fn(rt, th, src, dst) })
		rt.Run()
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	t.Run("identical given block", func(t *testing.T) {
		var res, back Result
		var held []byte
		srcBuf, dstBuf := given(1, 2, 3), given(1, 2, 3)
		run(t, 4096, func(rt *core.Runtime, th *core.Thread, src, dst *Disk) {
			programSync(rt, th, src, Request{Op: Write, Block: 5, Data: srcBuf, Give: true})
			res = programSync(rt, th, dst, Request{Op: Write, Block: 5, Data: dstBuf, Give: true})
			held = dst.data[5].buf
			if dst.data[5].own {
				t.Error("an adopted block is the adopter's own: it would recycle it")
			}
			back = programSync(rt, th, dst, Request{Op: Read, Block: 5})
			// The source rewrites, trims and restages block 5; the
			// adopter overwrites it, which must not recycle it.
			programSync(rt, th, src, Request{Op: Write, Block: 5, Data: fill(0x51)})
			programSync(rt, th, src, Request{Op: Write, Block: 5, Data: given(9, 9), Give: true})
			src.Trim(5, 1)
			for i := 0; i < 4; i++ {
				programSync(rt, th, src, Request{Op: Write, Block: 5, Data: fill(0x52 + byte(i))})
			}
			programSync(rt, th, dst, Request{Op: Write, Block: 5, Data: fill(0x61)})
			if dst.spare.Get() != nil {
				t.Error("the adopter recycled the adopted block when it overwrote it")
			}
			for i := 0; i < 4; i++ {
				programSync(rt, th, dst, Request{Op: Write, Block: 6, Data: fill(0x62 + byte(i))})
			}
		})
		if !res.OK || !same(res.Data, srcBuf) || !same(held, srcBuf) || !same(back.Data, srcBuf) {
			t.Fatal("an identical given block was not adopted: the adopter keeps its own copy")
		}
		if !bytes.Equal(srcBuf[:4096], padded(1, 2, 3)) {
			t.Fatal("an adopted block changed after the source rewrote, trimmed and restaged its number")
		}
	})

	t.Run("staged source block", func(t *testing.T) {
		var res Result
		dstBuf := given(0x77)
		run(t, 4096, func(rt *core.Runtime, th *core.Thread, src, dst *Disk) {
			programSync(rt, th, src, Request{Op: Write, Block: 7, Data: padded(0x77)})
			res = programSync(rt, th, dst, Request{Op: Write, Block: 7, Data: dstBuf, Give: true})
			// The source replaces its staged block, which it recycles,
			// and stages the next writes into it.
			programSync(rt, th, src, Request{Op: Write, Block: 7, Data: fill(0x78)})
			for b := 8; b < 12; b++ {
				programSync(rt, th, src, Request{Op: Write, Block: b, Data: fill(0x79)})
			}
		})
		if !res.OK || !same(res.Data, dstBuf) {
			t.Fatal("a block the source staged itself was adopted: the source may recycle it")
		}
		if !bytes.Equal(res.Data, padded(0x77)) {
			t.Fatalf("the adopter's block 7 starts %x after the source restaged, want 77", res.Data[0])
		}
	})

	t.Run("no match", func(t *testing.T) {
		cases := []struct {
			name     string
			srcSize  int
			srcBlock int
			srcBytes []byte
		}{
			{"differing bytes", 4096, 3, given(1, 2, 4)},
			{"another block number", 4096, 4, given(1, 2, 3)},
			{"another length", 2048, 3, append(make([]byte, 0, 2048), 1, 2, 3)},
			{"absent", 4096, -1, nil},
		}
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				var res Result
				dstBuf := given(1, 2, 3)
				run(t, c.srcSize, func(rt *core.Runtime, th *core.Thread, src, dst *Disk) {
					if c.srcBlock >= 0 {
						programSync(rt, th, src, Request{Op: Write, Block: c.srcBlock, Data: c.srcBytes, Give: true})
					}
					res = programSync(rt, th, dst, Request{Op: Write, Block: 3, Data: dstBuf, Give: true})
				})
				if !res.OK || !same(res.Data, dstBuf) {
					t.Fatal("the adopter committed the source's block, which is not the same block")
				}
			})
		}
	})

	t.Run("failed write adopts nothing", func(t *testing.T) {
		var res Result
		run(t, 4096, func(rt *core.Runtime, th *core.Thread, src, dst *Disk) {
			programSync(rt, th, src, Request{Op: Write, Block: 2, Data: given(2), Give: true})
			dst.InjectWriteFailures(1)
			res = programSync(rt, th, dst, Request{Op: Write, Block: 2, Data: given(2), Give: true})
			if _, ok := dst.data[2]; ok {
				t.Error("a failed given write committed a block")
			}
		})
		if res.OK || res.Data != nil {
			t.Fatalf("a failed given write answered OK %v with %d bytes", res.OK, len(res.Data))
		}
	})

	t.Run("ordinary write", func(t *testing.T) {
		var res Result
		var held []byte
		srcBuf := given(4)
		run(t, 4096, func(rt *core.Runtime, th *core.Thread, src, dst *Disk) {
			programSync(rt, th, src, Request{Op: Write, Block: 4, Data: srcBuf, Give: true})
			res = programSync(rt, th, dst, Request{Op: Write, Block: 4, Data: padded(4)})
			held = dst.data[4].buf
		})
		if !res.OK || res.Data != nil || same(held, srcBuf) {
			t.Fatal("a write that did not give its buffer adopted the source's block or answered with one")
		}
	})
}
