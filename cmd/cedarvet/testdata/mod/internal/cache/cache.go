// Package cache carries a hotalloc waiver that is live on a whole-module
// run and has nothing to suppress when the package is vetted alone.
package cache

// Cache is the device sim.Engine ticks.
type Cache struct{ page []int64 }

// Fill materialises the page.
func (c *Cache) Fill() {
	if c.page == nil {
		c.page = make([]int64, 8) //lint:allow hotalloc first touch, once per run
	}
}
