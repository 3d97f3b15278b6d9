// Fileserver: the paper's §4 file system — "every vnode is its own
// thread, which communicates with other threads that administer cylinder
// groups and free-maps and so forth" — serving a metadata-heavy workload,
// side by side with the big-lock design on identical hardware.
//
// Run: go run ./examples/fileserver
package main

import (
	"fmt"

	"chanos"
	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/vfs"
	"chanos/internal/workload"
)

const (
	cores   = 32
	clients = 12
	nDirs   = 8
	nFiles  = 12
)

func main() {
	fmt.Println("fileserver: vnode-per-thread FS vs big-lock FS,",
		cores, "cores,", clients, "clients")
	msgOps, msgVnodes := run("message")
	lockOps, _ := run("biglock")
	fmt.Printf("\n  message FS   %8.0f ops/sec  (%d vnode threads spawned)\n", msgOps, msgVnodes)
	fmt.Printf("  big-lock FS  %8.0f ops/sec\n", lockOps)
	fmt.Printf("  speedup      %8.2fx\n", msgOps/lockOps)
}

func run(kind string) (opsPerSec float64, vnodes uint64) {
	sys := chanos.New(cores, chanos.Config{Seed: 11})
	defer sys.Shutdown()

	disk := blockdev.NewDisk(sys.RT, blockdev.DefaultDiskParams(16384))
	drv := blockdev.NewDriver(sys.RT, disk, 128, 0)

	var built vfs.FS
	ready := sys.NewChan("ready", 1)
	sys.Boot("setup", func(t *chanos.Thread) {
		sb, err := vfs.Format(t, drv, 16384, 4096)
		if err != nil {
			panic(err)
		}
		var fs vfs.FS
		switch kind {
		case "message":
			fs = vfs.NewMsgFS(sys.RT, drv, sb, vfs.MsgFSConfig{CacheBlocks: 2048})
		case "biglock":
			fs = vfs.NewLockFS(sys.RT, drv, sb, vfs.LockFSConfig{Mode: vfs.LockModeBig, CacheBlocks: 2048})
		}
		built = fs
		for d := 0; d < nDirs; d++ {
			dir := fmt.Sprintf("/vol%d", d)
			if _, err := fs.Mkdir(t, dir); err != nil {
				panic(err)
			}
			for f := 0; f < nFiles; f++ {
				p := fmt.Sprintf("%s/file%d", dir, f)
				if _, err := fs.Create(t, p); err != nil {
					panic(err)
				}
				if err := fs.Write(t, p, 0, []byte("contents of "+p)); err != nil {
					panic(err)
				}
			}
		}
		ready.Send(t, fs)
	})

	// Drain the setup phase completely before starting the clock: the
	// ready channel is buffered, so Run returns once the tree is built.
	sys.Run()

	counts := make([]uint64, clients)
	stopped := false
	sys.Boot("driver", func(t *chanos.Thread) {
		v, _ := ready.Recv(t)
		fs := v.(vfs.FS)
		for i := 0; i < clients; i++ {
			i := i
			rng := sim.NewRNG(100 + uint64(i))
			dirs := workload.NewPopularity(rng, nDirs, 1.0)
			t.Spawn(fmt.Sprintf("client%d", i), func(ct *core.Thread) {
				// Open a working set once (the paper's channel plumbing /
				// fd table), then operate on handles.
				handles := make(map[string]*vfs.Handle)
				open := func(p string) *vfs.Handle {
					if h, ok := handles[p]; ok {
						return h
					}
					h, err := fs.Open(ct, p)
					if err != nil {
						return nil
					}
					handles[p] = h
					return h
				}
				for !stopped {
					p := fmt.Sprintf("/vol%d/file%d", dirs.Next(), rng.Intn(nFiles))
					h := open(p)
					if h == nil {
						continue
					}
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4: // 50% stat
						h.Stat(ct)
					case 5, 6, 7: // 30% read
						h.Read(ct, 0, 64)
					default: // 20% write
						h.Write(ct, 0, []byte("fresh data"))
					}
					counts[i]++
					ct.Compute(500)
				}
			})
		}
	})

	window := sys.Cycles(0.004) // 4 simulated milliseconds
	sys.RunFor(window)

	var total uint64
	for _, c := range counts {
		total += c
	}
	if m, ok := built.(*vfs.MsgFS); ok {
		vnodes = m.VnodesSpawned
		// Shut down in order once the numbers are taken: the clients
		// finish the operation in flight and exit, then the file system
		// writes its dirty blocks back and the driver stops.
		stopped = true
		sys.Run()
		sys.Boot("shutdown", func(t *chanos.Thread) {
			m.Stop(t)
			drv.Stop(t)
		})
		sys.Run()
	}
	return float64(total) / sys.Seconds(window), vnodes
}
