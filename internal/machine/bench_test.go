package machine

import "testing"

// churn drives a contiguous machine through a steady-state alloc/release
// cycle under fragmentation pressure. Job IDs are recycled so the owner
// table stays bounded; the LCG stream is fixed, so every run executes the
// identical placement sequence.
type churn struct {
	m     *Machine
	live  []int
	idles []int // recycled job IDs
	next  int
	rng   uint64
}

func newChurn(total, unit int) *churn {
	c := &churn{m: NewContiguous(total, unit), rng: 0x9E3779B97F4A7C15}
	// Fill the machine with 1..4-group jobs, then punch holes by releasing
	// every third job so findRun always works against a fragmented map.
	unitSz := unit
	for {
		n := c.roll()%4 + 1
		if c.m.Free() < n*unitSz {
			break
		}
		id := c.takeID()
		if c.m.Alloc(id, n*unitSz) != nil {
			c.idles = append(c.idles, id)
			break
		}
		c.live = append(c.live, id)
	}
	keep := c.live[:0]
	for i, id := range c.live {
		if i%3 == 0 {
			if err := c.m.Release(id); err != nil {
				panic(err)
			}
			c.idles = append(c.idles, id)
		} else {
			keep = append(keep, id)
		}
	}
	c.live = keep
	return c
}

func (c *churn) roll() int {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	return int(c.rng >> 33)
}

func (c *churn) takeID() int {
	if n := len(c.idles); n > 0 {
		id := c.idles[n-1]
		c.idles = c.idles[:n-1]
		return id
	}
	id := c.next
	c.next++
	return id
}

// step is one benchmark operation: release a pseudo-random live job, then
// allocate a fresh one of pseudo-random size (skipped when fragmentation
// leaves no contiguous run, which keeps pressure on longestFreeRun too).
func (c *churn) step() {
	if len(c.live) > 0 {
		k := c.roll() % len(c.live)
		id := c.live[k]
		c.live[k] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		if err := c.m.Release(id); err != nil {
			panic(err)
		}
		c.idles = append(c.idles, id)
	}
	n := c.roll()%4 + 1
	size := n * c.m.Unit()
	if !c.m.Fits(size) {
		return
	}
	id := c.takeID()
	if err := c.m.Alloc(id, size); err != nil {
		panic(err)
	}
	c.live = append(c.live, id)
}

// BenchmarkMachineScale measures the steady-state alloc/release cycle of a
// contiguous machine across four orders of magnitude. The paper's rack is
// M=320; the ROADMAP's scale-out target is the 320k–1M band, where the run
// index's O(log G) paths keep the cycle flat.
func BenchmarkMachineScale(b *testing.B) {
	sizes := []struct {
		label string
		total int
	}{
		{"M=320", 320},
		{"M=32k", 32 * 1024},
		{"M=320k", 320 * 1024},
		{"M=1M", 1 << 20},
	}
	for _, sz := range sizes {
		b.Run("indexed/"+sz.label, func(b *testing.B) {
			c := newChurn(sz.total, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step()
			}
		})
	}
}

// BenchmarkCompact pins the Compact fix: moved jobs are found by walking
// the owned-ID list, not by scanning the owner table up to the highest job
// ID ever seen. The sparse IDs here (stride 512) made the old per-move
// ownerOf scan an O(G·maxID) worst case.
func BenchmarkCompact(b *testing.B) {
	const (
		unit   = 32
		groups = 1024
		stride = 512
	)
	m := NewContiguous(groups*unit, unit)
	ids := make([]int, 0, groups)
	for g := 0; g < groups; g++ {
		id := g * stride
		if err := m.Alloc(id, unit); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Punch holes at every other group, compact the survivors left,
		// then refill the reclaimed tail — one fragmentation/compaction
		// cycle per iteration.
		for k := 0; k < len(ids); k += 2 {
			if err := m.Release(ids[k]); err != nil {
				b.Fatal(err)
			}
		}
		m.Compact()
		for k := 0; k < len(ids); k += 2 {
			if err := m.Alloc(ids[k], unit); err != nil {
				b.Fatal(err)
			}
		}
	}
}
