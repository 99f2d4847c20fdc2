//go:build unix

package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// On the sandbox the benchmark was built on, a core that has idled runs at
// roughly half speed for up to a second afterwards: the same 60 M
// iteration loop takes 20 ms on a busy core and 36 ms after a 700 ms
// sleep, so every latency and every short phase is bimodal and a median
// jumps between the two modes from run to run. One spinner per CPU at the
// lowest scheduling priority keeps the cores out of idle without taking
// time from anything runnable (nice 19 weighs 15 against 1024) - what
// fixing the frequency governor does on a machine one controls. Spinners
// are child processes, not goroutines, so the driver's garbage collector
// never waits for one to reach a safe point.

// keepWarm starts the spinners. A spinner that cannot start is not an
// error: the run is then merely noisier.
func keepWarm() {
	self, err := os.Executable()
	if err != nil {
		return
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-spin")
		if cmd.Start() == nil {
			children.add(cmd)
		}
	}
}

// spin is the body of a spinner process: lower this thread to nice 19 and
// burn cycles until killed.
func spin() {
	runtime.LockOSThread()
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		os.Exit(1)
	}
	for x := uint64(1); ; x++ {
		if x == 0 {
			runtime.Gosched()
		}
	}
}
