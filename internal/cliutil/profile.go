package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the pprof plumbing behind the shared -cpuprofile and
// -memprofile flags: StartProfiles begins collection, Stop finishes it.
// A host-time regression should be attributable in one re-run with
// these flags — that is the whole point of having them on every command.
type Profiles struct {
	cpu     *os.File
	memPath string
}

// StartProfiles opens the requested profiles; empty paths skip that
// profile, and a fully empty request returns a Profiles whose Stop is a
// no-op (callers need no nil checks). On error nothing is left running.
func StartProfiles(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profiling error is the one worth reporting
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpu = f
	}
	return p, nil
}

// Stop ends CPU profiling and writes the heap profile (after a GC, so
// the profile shows live memory rather than garbage). Safe to call on a
// Profiles that started nothing.
func (p *Profiles) Stop() error {
	if p == nil {
		return nil
	}
	var firstErr error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			firstErr = fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpu = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("memprofile: %w", err)
			}
			return firstErr
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			_ = f.Close()
			if firstErr == nil {
				firstErr = fmt.Errorf("memprofile: %w", err)
			}
			return firstErr
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("memprofile: %w", err)
		}
		p.memPath = ""
	}
	return firstErr
}
