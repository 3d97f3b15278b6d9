package chanos_test

import (
	"errors"
	"fmt"
	"testing"

	"chanos"
	"chanos/internal/blockdev"
	"chanos/internal/compat"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/supervise"
	"chanos/internal/vfs"
)

// TestWholeSystemScenario boots every subsystem together — message
// kernel, vnode-thread FS, compat layer, supervision — and runs a small
// end-to-end scenario twice to check both behaviour and determinism.
func TestWholeSystemScenario(t *testing.T) {
	run := func() (endTime chanos.Time, fsOps uint64, restarts uint64) {
		sys := chanos.New(32, chanos.Config{Seed: 1234})
		defer sys.Shutdown()

		// Kernel with a clock service.
		k := kernel.New(sys.RT, kernel.Config{KernelCoreFraction: 0.25})
		k.Register("clock", 1, func(t *core.Thread, req kernel.Request) core.Msg {
			return t.Now()
		})

		// Disk + message FS.
		disk := blockdev.NewDisk(sys.RT, blockdev.DefaultDiskParams(8192))
		drv := blockdev.NewDriver(sys.RT, disk, 64, 1)

		var msgfs *vfs.MsgFS
		crashes := 0
		sys.Boot("init", func(th *core.Thread) {
			sb, err := vfs.Format(th, drv, 8192, 1024)
			if err != nil {
				t.Errorf("format: %v", err)
				return
			}
			msgfs = vfs.NewMsgFS(sys.RT, drv, sb, vfs.MsgFSConfig{})

			// A supervised logger service writing through the compat
			// layer; it crashes twice and must come back.
			logReq := sys.NewChan("log", 16)
			sup := supervise.Spawn(th, "logger-sup",
				supervise.Config{Strategy: supervise.OneForOne, MaxRestarts: 10},
				[]supervise.ChildSpec{{
					Name: "logger",
					Start: func(lt *core.Thread) {
						p := compat.NewProc(msgfs)
						fd, err := p.Open(lt, "/var.log", compat.OCreate|compat.OWrOnly)
						if err != nil {
							lt.Fail(err)
						}
						p.Lseek(lt, fd, 0, compat.SeekEnd)
						for {
							v, ok := logReq.Recv(lt)
							if !ok {
								return
							}
							line := v.(string)
							if line == "CRASH" {
								crashes++
								lt.Fail(errors.New("injected logger crash"))
							}
							if _, err := p.Write(lt, fd, []byte(line+"\n")); err != nil {
								lt.Fail(err)
							}
						}
					},
				}})

			// The application: uses the kernel clock, writes log lines,
			// injects two crashes along the way.
			app := th.Spawn("app", func(at *core.Thread) {
				for i := 0; i < 20; i++ {
					now := k.Call(at, "clock", 0, "now", nil).(chanos.Time)
					_ = now
					logReq.Send(at, fmt.Sprintf("event %d", i))
					if i == 5 || i == 12 {
						logReq.Send(at, "CRASH")
					}
					at.Compute(5_000)
				}
				at.Sleep(2_000_000) // let the logger drain
				sup.Stop(at)
			})
			_ = app
		})
		sys.Run()

		// Verify the log contains every event despite the crashes. Lines
		// sent to a dead logger before its restart may be lost from the
		// channel the instant of the kill; the supervised service itself
		// must have kept accepting afterwards.
		var content []byte
		check := sys.Boot("check", func(th *core.Thread) {
			p := compat.NewProc(msgfs)
			in, err := p.Stat(th, "/var.log")
			if err != nil {
				t.Errorf("stat log: %v", err)
				return
			}
			if in.Size == 0 {
				t.Error("log is empty")
			}
			fd, _ := p.Open(th, "/var.log", compat.ORdOnly)
			content, _ = p.Read(th, fd, int(in.Size))
		})
		sys.Run()
		if check.ExitReason() != nil {
			t.Fatalf("checker died: %v", check.ExitReason())
		}
		if crashes != 2 {
			t.Fatalf("crashes = %d, want 2", crashes)
		}
		if len(content) == 0 {
			t.Fatal("no log content read back")
		}
		return sys.Now(), disk.Reads + disk.Writes, sys.Stats().Kills
	}

	t1, h1, k1 := run()
	t2, h2, k2 := run()
	if t1 != t2 || h1 != h2 || k1 != k2 {
		t.Fatalf("whole-system run is nondeterministic: (%d,%d,%d) vs (%d,%d,%d)",
			t1, h1, k1, t2, h2, k2)
	}
}

// TestFacadeStrictMode exercises the facade's strict shared-nothing mode.
func TestFacadeStrictMode(t *testing.T) {
	sys := chanos.New(4, chanos.Config{Seed: 9, Strict: true})
	defer sys.Shutdown()
	ch := sys.NewChan("c", 1)
	payload := []int{1, 2, 3}
	var got []int
	sys.Boot("tx", func(th *chanos.Thread) {
		ch.Send(th, payload)
		payload[0] = 99
	})
	sys.Boot("rx", func(th *chanos.Thread) {
		th.Sleep(10_000)
		v, _ := ch.Recv(th)
		got = v.([]int)
	})
	sys.Run()
	if got[0] != 1 {
		t.Fatal("strict mode leaked a mutation through the facade")
	}
	if sys.Stats().BytesCopied == 0 {
		t.Fatal("no copy bytes recorded")
	}
}

// TestFacadeBlockedReporting checks deadlock visibility through the facade.
func TestFacadeBlockedReporting(t *testing.T) {
	sys := chanos.New(2, chanos.Config{Seed: 2})
	defer sys.Shutdown()
	ch := sys.NewChan("never", 0)
	sys.Boot("stuck", func(th *chanos.Thread) { ch.Recv(th) })
	sys.Run()
	b := sys.RT.Blocked()
	if len(b) != 1 || b[0] != "stuck" {
		t.Fatalf("Blocked() = %v", b)
	}
}
