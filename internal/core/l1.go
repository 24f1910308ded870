package core

import "repro/internal/trace"

// L1 is the functional model of the split primary cache: the L1-I and
// L1-D arrays, the L1-D write policy, the dirty-bit loads-pass-stores
// bookkeeping, and the refill fetch sizes. It is the one copy of the
// paper's write-policy state machine (Fig. 5). All three engines drive
// it: the cycle-accurate System, functional warming (WarmBatch,
// WarmScan), and the one-pass stack-distance analyzer's filter cache.
//
// Each access updates tags, flags, subblock masks, and replacement
// state in one step and reports in an L1Outcome what it asks of the
// rest of the hierarchy; the engine applies its own accounting (cycles
// and Stats, nothing, or stack-distance classes) to the outcome. The
// L1 changes can all happen up front because nothing between an
// eviction, the L2 read, and the insert — L2 lookups and write-buffer
// timing — ever reads L1 state.
type L1 struct {
	i, d     cache
	policy   WritePolicy
	dirtyBit bool // LPSDirtyBit: replacing a dirty line flushes the write buffer

	loadProbe bool // LoadHit may answer: a direct-mapped L1-D, policy not Subblock

	iFetchBytes, dFetchBytes uint64

	writeBacks []uint64 // backs L1Outcome.WriteBacks; sized once, never grown

	out L1Outcome // the outcome of the latest access that has one
}

// L1Miss classifies one primary-cache access.
type L1Miss uint8

const (
	// L1Hit: the access was serviced by the L1.
	L1Hit L1Miss = iota
	// L1ReadMiss: a fetch or load found no valid copy of its line.
	L1ReadMiss
	// L1WriteOnlyReadMiss: a load mapped to a write-only line, which
	// services writes but not reads; the line is reallocated.
	L1WriteOnlyReadMiss
	// L1SubblockWordMiss: a load matched the tag, but its word was
	// never validated (subblock placement).
	L1SubblockWordMiss
	// L1WriteMiss: a store missed.
	L1WriteMiss
)

// L1Outcome is what one access asks of the rest of the hierarchy. The
// L1 arrays have already been updated when it is returned. A hit that
// sends nothing to L2 returns no outcome (nil); any other outcome lives
// on the model, so an access allocates and copies nothing, and it is
// read-only and valid until the next access.
type L1Outcome struct {
	Miss L1Miss

	// Block is the aligned fetch block read from L2 and installed in
	// the L1 when Refill reports true.
	Block uint64

	// WriteThrough reports a store under a write-through policy, whose
	// word at the word-aligned address Word goes to L2 through the
	// write buffer.
	WriteThrough bool
	Word         uint64

	// WriteBacks holds the addresses of the dirty write-back victims
	// the refill displaced, in eviction order. It aliases a buffer on
	// the model and is valid until the next access.
	WriteBacks []uint64

	// Flushes counts dirty lines replaced under the dirty-bit
	// loads-pass-stores scheme, each of which must flush the write
	// buffer. FlushSelf reports that one of them was the requested
	// line itself (a write-only line reallocated by a read).
	Flushes   uint8
	FlushSelf bool
}

// Refill reports whether the access read the fetch block at Block from
// L2: every read miss does, and so does a write miss under write-back
// (write-allocate). A write-through write miss never does.
func (o *L1Outcome) Refill() bool { return o.Miss != L1Hit && !o.WriteThrough }

// NewL1 builds the primary caches cfg describes: L1I, L1D, the fetch
// sizes, WritePolicy, and LoadsPassStores. Other fields are ignored.
func NewL1(cfg Config) (*L1, error) {
	if err := cfg.validateL1(); err != nil {
		return nil, err
	}
	m := newL1(&cfg)
	return &m, nil
}

// newL1 builds the model from an already validated configuration.
func newL1(cfg *Config) L1 {
	return L1{
		i:           *newCache(cfg.L1I),
		d:           *newCache(cfg.L1D),
		policy:      cfg.WritePolicy,
		dirtyBit:    cfg.LoadsPassStores == LPSDirtyBit,
		loadProbe:   cfg.L1D.Ways == 1 && cfg.WritePolicy != Subblock,
		iFetchBytes: uint64(cfg.l1iFetch() * trace.WordBytes),
		dFetchBytes: uint64(cfg.l1dFetch() * trace.WordBytes),
		writeBacks:  make([]uint64, 0, cfg.l1dFetch()/cfg.L1D.LineWords),
	}
}

// FetchHit reports whether Fetch(paddr) would be a direct-mapped hit:
// one that returns no outcome and changes no state (a direct-mapped
// set has no replacement state to touch). It has no side effects and
// inlines, so an engine pays a call only when it must go on to Fetch.
// On a set-associative L1-I it always reports false.
func (m *L1) FetchHit(paddr uint64) bool {
	c := &m.i
	line := paddr >> c.offBits
	slot := int(line & c.setMask)
	return c.ways == 1 && c.tags[slot] == line && c.flags[slot]&flagValid != 0
}

// LoadHit is FetchHit for Load: it reports a direct-mapped hit on a
// valid line that is not write-only. Under Subblock a hit also needs
// its word's valid bit, so LoadHit always reports false there and the
// engine asks Load.
func (m *L1) LoadHit(paddr uint64) bool {
	c := &m.d
	line := paddr >> c.offBits
	slot := int(line & c.setMask)
	return m.loadProbe && c.tags[slot] == line && c.flags[slot]&(flagValid|flagWriteOnly) == flagValid
}

// Fetch performs an instruction fetch of physical address paddr.
func (m *L1) Fetch(paddr uint64) *L1Outcome {
	c := &m.i
	if slot := c.find(c.lineAddr(paddr)); slot >= 0 && c.flags[slot]&flagValid != 0 {
		c.touch(slot)
		return nil
	}
	o := &m.out
	*o = L1Outcome{Miss: L1ReadMiss}
	m.refill(c, paddr, m.iFetchBytes, o)
	return o
}

// Load performs a data read of physical address paddr.
func (m *L1) Load(paddr uint64) *L1Outcome {
	c := &m.d
	miss := L1ReadMiss
	if slot := c.find(c.lineAddr(paddr)); slot >= 0 {
		f := c.flags[slot]
		switch {
		case f&flagWriteOnly != 0:
			miss = L1WriteOnlyReadMiss
		case m.policy == Subblock && c.masks[slot]&(1<<c.wordOf(paddr)) == 0:
			miss = L1SubblockWordMiss
		case f&flagValid != 0:
			c.touch(slot)
			return nil
		}
	}
	o := &m.out
	*o = L1Outcome{Miss: miss}
	m.refill(c, paddr, m.dFetchBytes, o)
	return o
}

// Store performs a data write of size bytes at physical address paddr.
func (m *L1) Store(paddr uint64, size uint8) *L1Outcome {
	var o *L1Outcome
	if m.policy != WriteBack {
		o = &m.out
		*o = L1Outcome{WriteThrough: true, Word: paddr &^ 3}
	}
	c := &m.d
	line := c.lineAddr(paddr)
	slot := c.find(line)

	switch m.policy {
	case WriteBack:
		if slot >= 0 && c.flags[slot]&flagValid != 0 {
			c.flags[slot] |= flagDirty
			c.touch(slot)
			return nil
		}
		// Write-allocate: refill the line, then dirty it.
		o = &m.out
		*o = L1Outcome{Miss: L1WriteMiss}
		m.refill(c, paddr, m.dFetchBytes, o)
		if slot = c.find(line); slot >= 0 {
			c.flags[slot] |= flagDirty
		}

	case WriteMissInvalidate:
		if slot >= 0 && c.flags[slot]&flagValid != 0 {
			c.touch(slot)
			return o
		}
		// The write corrupted whatever the index selected.
		o.Miss = L1WriteMiss
		c.clear(c.victimSlot(line))

	case WriteOnly:
		if slot >= 0 && c.flags[slot]&(flagValid|flagWriteOnly) != 0 {
			// The line accumulates the dirty bit used by the
			// flush-on-replacement scheme.
			c.flags[slot] |= flagDirty
			c.touch(slot)
			return o
		}
		// Retag the line write-only so subsequent writes hit.
		o.Miss = L1WriteMiss
		m.evict(line, o)
		c.insert(line, flagWriteOnly|flagDirty, 0)

	case Subblock:
		fullWord := size >= trace.WordBytes && paddr&3 == 0
		if slot >= 0 && c.flags[slot]&flagValid != 0 {
			// Full-word writes validate their word.
			if fullWord {
				c.masks[slot] |= 1 << c.wordOf(paddr)
			}
			c.flags[slot] |= flagDirty
			c.touch(slot)
			return o
		}
		// Install the tag; only a full-word write validates its word,
		// partial writes validate nothing.
		o.Miss = L1WriteMiss
		m.evict(line, o)
		var mask uint32
		if fullWord {
			mask = 1 << c.wordOf(paddr)
		}
		c.insert(line, flagValid|flagDirty, mask)
	}
	return o
}

// refill installs the aligned fetch block containing paddr into c,
// first evicting whatever the block's lines displace (data side only:
// instruction lines are never dirty).
func (m *L1) refill(c *cache, paddr, fetchBytes uint64, o *L1Outcome) {
	block := paddr &^ (fetchBytes - 1)
	lineBytes := uint64(c.geom.LineWords * trace.WordBytes)
	if c == &m.d {
		m.writeBacks = m.writeBacks[:0]
		for off := uint64(0); off < fetchBytes; off += lineBytes {
			m.evict(c.lineAddr(block+off), o)
		}
		o.WriteBacks = m.writeBacks
	}
	for off := uint64(0); off < fetchBytes; off += lineBytes {
		c.insert(c.lineAddr(block+off), flagValid, c.fullMask)
	}
	o.Block = block
}

// evict prepares to displace whatever occupies line's victim slot in
// L1-D: a dirty write-back victim is handed to L2; under the dirty-bit
// scheme a dirty line's replacement flushes the write buffer, which
// keeps L2-D consistent without associative matching. Either way the
// line is no longer dirty, so a repeated eviction pass cannot
// double-count it.
func (m *L1) evict(line uint64, o *L1Outcome) {
	c := &m.d
	slot := c.find(line)
	if slot < 0 {
		slot = c.victimSlot(line)
	}
	if c.tags[slot] == tagInvalid || c.flags[slot]&flagDirty == 0 {
		return
	}
	if m.policy == WriteBack {
		m.writeBacks = append(m.writeBacks, c.tags[slot]<<c.offBits)
	} else if m.dirtyBit {
		o.Flushes++
		o.FlushSelf = o.FlushSelf || c.tags[slot] == line
	} else {
		return
	}
	c.flags[slot] &^= flagDirty
}
