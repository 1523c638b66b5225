package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesWriteBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	p, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", path, err)
		}
	}
	// Stop must be idempotent.
	if err := p.Stop(); err != nil {
		t.Errorf("second Stop: %v", err)
	}
}

func TestProfilesNoOpAndNil(t *testing.T) {
	p, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Errorf("empty Profiles.Stop: %v", err)
	}
	var nilP *Profiles
	if err := nilP.Stop(); err != nil {
		t.Errorf("nil Profiles.Stop: %v", err)
	}
}

func TestProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu"), ""); err == nil {
		t.Fatal("unwritable cpuprofile path should error at start")
	}
	p, err := StartProfiles("", filepath.Join(t.TempDir(), "no", "such", "dir", "mem"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err == nil {
		t.Fatal("unwritable memprofile path should error at stop")
	}
}
