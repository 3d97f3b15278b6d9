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
	}, func(th *core.Thread) { drv.Stop(th) })
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
	}, func(th *core.Thread) { drv.Stop(th) })
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

// TestReadReturnsACopy: a read hands out its own buffer; writing to it
// leaves the platter alone.
func TestReadReturnsACopy(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	var first, second Result
	rt.Boot("app", func(th *core.Thread) {
		programSync(rt, th, disk, Request{Op: Write, Block: 7, Data: fill(0x77)})
		first = programSync(rt, th, disk, Request{Op: Read, Block: 7})
		copy(first.Data, fill(0))
		second = programSync(rt, th, disk, Request{Op: Read, Block: 7})
	})
	rt.Run()
	if !bytes.Equal(second.Data, fill(0x77)) || !bytes.Equal(disk.SnapshotData()[7], fill(0x77)) {
		t.Fatal("writing to a read's data changed the platter")
	}
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
		if disk.spare.Len() == 0 {
			t.Fatal("no spare buffer to stage into: the case tests nothing")
		}
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
