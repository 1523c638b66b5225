// Package errflow is the golden package for the errflow analyzer.
package errflow

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

func fail() error { return errors.New("boom") }

func discards() {
	fail()       // want `error return of fail is silently discarded`
	defer fail() // want `error return of fail is silently discarded`
	go fail()    // want `error return of fail is silently discarded`
	if err := fail(); err != nil {
		_ = err // explicitly received: clean
	}
}

func exemptWriters() {
	var b strings.Builder
	b.WriteString("never fails")
	fmt.Println("never fails")
	fmt.Fprintf(os.Stderr, "never fails")
}

func undocumented() {
	panic("boom") // want `undocumented panic`
}

// crash brings the machine down on purpose. Panics if called.
func crash() {
	panic("documented")
}

// MustValue follows the Must naming convention.
func MustValue(ok bool) int {
	if !ok {
		panic("not ok")
	}
	return 1
}

func exits() {
	os.Exit(1) // want `os\.Exit in internal code`
}
