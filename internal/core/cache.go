package core

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// Line state flags. A line may be Valid (normal), WriteOnly (tag match
// services writes but not reads), Dirty (write-back data, or the
// loads-pass-stores dirty bit under write-through), with a per-word
// valid mask for subblock placement.
const (
	flagValid     uint8 = 1 << 0
	flagDirty     uint8 = 1 << 1
	flagWriteOnly uint8 = 1 << 2
)

// cache is a set-associative cache array with per-line flags and
// subblock valid masks. It is a mechanism only; the write policy lives
// in L1 and the timing in System.
type cache struct {
	geom     CacheGeom
	sets     uint64
	setMask  uint64   // sets-1, hoisted for the find fast path
	ways     int      // geom.Ways, hoisted for the find fast path
	offBits  uint     // log2(line bytes)
	tags     []uint64 // per way*set: line address (addr >> offBits); tagInvalid when empty
	flags    []uint8
	masks    []uint32 // per-line word-valid bits (subblock placement)
	lruWay   []uint8  // most-recently-used way per set (victim = any other)
	fullMask uint32   // mask with one bit per word in a line
}

const tagInvalid = ^uint64(0)

// newCache builds a cache array for the geometry.
func newCache(g CacheGeom) *cache {
	sets := g.SizeWords / (g.LineWords * g.Ways)
	c := &cache{
		geom:     g,
		sets:     uint64(sets),
		setMask:  uint64(sets) - 1,
		ways:     g.Ways,
		offBits:  log2(uint64(g.LineWords * trace.WordBytes)),
		tags:     make([]uint64, sets*g.Ways),
		flags:    make([]uint8, sets*g.Ways),
		masks:    make([]uint32, sets*g.Ways),
		lruWay:   make([]uint8, sets),
		fullMask: uint32(1)<<uint(g.LineWords) - 1,
	}
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
	return c
}

// log2 returns floor(log2(v)) for v >= 1 (0 for v == 0).
func log2(v uint64) uint {
	if v == 0 {
		return 0
	}
	return uint(bits.Len64(v)) - 1
}

// lineAddr returns the line-granular address (tag + index).
func (c *cache) lineAddr(addr uint64) uint64 { return addr >> c.offBits }

// setOf returns the set index for an address.
func (c *cache) setOf(line uint64) uint64 { return line & (c.sets - 1) }

// wordOf returns the word index within a line.
func (c *cache) wordOf(addr uint64) uint {
	return uint(addr>>2) & uint(c.geom.LineWords-1)
}

// find returns the way holding line, or -1. This is the hottest
// function in a simulation (every fetch, load, and store probes at
// least one cache), so the set arithmetic is hoisted into precomputed
// fields and the way scan runs over a subslice, which lets the compiler
// prove the indexing in-bounds once instead of per way.
func (c *cache) find(line uint64) int {
	base := int(line&c.setMask) * c.ways
	if c.ways == 1 {
		if c.tags[base] == line {
			return base
		}
		return -1
	}
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			return base + w
		}
	}
	return -1
}

// touch marks slot (an absolute way index) most recently used.
func (c *cache) touch(slot int) {
	if c.geom.Ways > 1 {
		c.lruWay[slot/c.geom.Ways] = uint8(slot % c.geom.Ways)
	}
}

// victimSlot picks the slot to replace for line's set: an invalid way if
// any, else the least-recently-used way (exact for the 2-way
// organizations the study evaluates).
func (c *cache) victimSlot(line uint64) int {
	set := int(c.setOf(line))
	base := set * c.geom.Ways
	for w := 0; w < c.geom.Ways; w++ {
		if c.tags[base+w] == tagInvalid {
			return base + w
		}
	}
	if c.geom.Ways == 1 {
		return base
	}
	mru := int(c.lruWay[set])
	if c.geom.Ways == 2 {
		return base + (1 - mru)
	}
	return base + (mru+1)%c.geom.Ways
}

// evicted describes the line displaced by an insert.
type evicted struct {
	valid bool
	line  uint64
	dirty bool
}

// insert installs line with the given flags and word mask, returning the
// displaced line if one was valid (including write-only lines, whose
// dirty state matters to the flush-on-replace scheme). A line already
// present (for example a write-only line being reallocated by a read)
// is updated in place rather than duplicated in another way.
func (c *cache) insert(line uint64, flags uint8, mask uint32) evicted {
	slot := c.find(line)
	if slot < 0 {
		slot = c.victimSlot(line)
	}
	var ev evicted
	if c.tags[slot] != tagInvalid {
		ev = evicted{valid: true, line: c.tags[slot], dirty: c.flags[slot]&flagDirty != 0}
	}
	c.tags[slot] = line
	c.flags[slot] = flags
	c.masks[slot] = mask
	c.touch(slot)
	return ev
}

// invalidate drops line if present.
func (c *cache) invalidate(line uint64) {
	if slot := c.find(line); slot >= 0 {
		c.clear(slot)
	}
}

// clear empties slot.
func (c *cache) clear(slot int) {
	c.tags[slot] = tagInvalid
	c.flags[slot] = 0
	c.masks[slot] = 0
}

// flush invalidates every line.
func (c *cache) flush() {
	for i := range c.tags {
		c.clear(i)
	}
}

// String describes the array shape.
func (c *cache) String() string {
	return fmt.Sprintf("%dW %d-way %dW-line", c.geom.SizeWords, c.geom.Ways, c.geom.LineWords)
}
