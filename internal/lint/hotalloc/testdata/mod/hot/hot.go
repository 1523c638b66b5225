// Package hot is the golden hot package: Engine.Tick is the per-cycle
// root and everything it reaches inside this package must stay
// allocation-free.
package hot

import (
	"fmt"

	"hotmod/helper"
)

// Ticker is dispatched through an interface from Tick.
type Ticker interface{ Sub(cycle int64) }

// Engine is the root device.
type Engine struct {
	keep []int
	dev  Ticker
	name string
}

// Tick is the per-cycle root.
func (e *Engine) Tick(cycle int64) {
	s := make([]int, 8) // want `make\(...\) allocates`
	_ = s
	p := new(Engine) // want `new\(...\) allocates`
	_ = p
	e.keep = append(e.keep, int(cycle)) // self-append reuse: clean
	lit := []int{1, 2}                  // want `slice/map composite literal allocates`
	lit = append(e.keep, 3)             // want `append to a fresh destination`
	_ = lit
	q := &Engine{} // want `&composite-literal allocates`
	_ = q
	f := func() {} // want `func literal allocates its closure environment`
	f()
	e.name = e.name + "x" // want `string concatenation allocates`
	fmt.Sprint(cycle)     // want `fmt\.Sprint boxes its arguments`
	if cycle < 0 {
		panic(fmt.Sprintf("bad cycle %d", cycle)) // autopsy path: exempt
	}
	e.reached()
	e.dev.Sub(cycle)
	helper.Cold(int(cycle))
	waived()
}

// reached is hot by reachability from Tick.
func (e *Engine) reached() {
	e.keep = make([]int, 4) // want `make\(...\) allocates`
}

// idle lives in a hot package, but nothing per-cycle reaches it, so the
// waiver on its second allocation suppresses nothing: on a whole-module
// load that is a finding of its own.
func idle() {
	_ = make([]int, 1)
	_ = make([]int, 2) //lint:allow hotalloc left behind when idle fell off the tick path // want `//lint:allow hotalloc suppresses no finding`
}

// waived shows a justified allocation surviving via a directive.
func waived() {
	_ = make([]int, 1) //lint:allow hotalloc warms a reused buffer once; steady state is clean
}

// Device implements Ticker; the interface dispatch from Tick makes its
// Sub method hot.
type Device struct{ buf []byte }

// Sub runs once per cycle via the Ticker interface.
func (d *Device) Sub(cycle int64) {
	d.buf = make([]byte, 16) // want `make\(...\) allocates`
}
