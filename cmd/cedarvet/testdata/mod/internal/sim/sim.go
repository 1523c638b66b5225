// Package sim holds the Tick root that makes cache.Fill per-cycle code:
// hotalloc reaches the waived allocation there only when this package is
// part of the load.
package sim

import "vetdemo/internal/cache"

// Engine is the root device.
type Engine struct{ c *cache.Cache }

// Tick is the per-cycle root.
func (e *Engine) Tick(cycle int64) { e.c.Fill() }
