// Package prof adds the standard pprof escape hatches to the CLI tools,
// -cpuprofile and -memprofile, so hot-path regressions in the simulation
// core can be diagnosed straight from a sweep invocation.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Flags holds the profiling flag values registered by Register.
type Flags struct {
	cpu string
	mem string

	cpuFile *os.File
	once    sync.Once
}

// Register installs -cpuprofile and -memprofile on the default flag
// set. Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.mem, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// Start begins CPU profiling when requested. Pair it with Stop.
func (f *Flags) Start() error {
	if f.cpu == "" {
		return nil
	}
	file, err := os.Create(f.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	f.cpuFile = file
	return nil
}

// Stop flushes the CPU profile and writes the heap profile. It is
// idempotent so every os.Exit path can call it unconditionally.
func (f *Flags) Stop() {
	f.once.Do(func() {
		if f.cpuFile != nil {
			pprof.StopCPUProfile()
			f.cpuFile.Close()
		}
		if f.mem == "" {
			return
		}
		file, err := os.Create(f.mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(file); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		file.Close()
	})
}
