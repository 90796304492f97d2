// Package drift seeds a fake counter field to prove counterdrift
// catches a field that is wired into the request path but not into
// the Add/Sub/String/Sample snapshot pipeline.
package drift

import "fmt"

type Counters struct {
	Reads  uint64
	Writes uint64
	// Spilled is bumped on the request path below but deliberately
	// missing from Add, Sub, String, and Sample.
	Spilled uint64 // want `Spilled is not referenced in Counters\.(Add|Sub|String|Sample)`
}

func (c Counters) Add(o Counters) Counters {
	c.Reads += o.Reads
	c.Writes += o.Writes
	return c
}

func (c Counters) Sub(o Counters) Counters {
	c.Reads -= o.Reads
	c.Writes -= o.Writes
	return c
}

func (c Counters) String() string {
	return fmt.Sprintf("r=%d w=%d", c.Reads, c.Writes)
}

// Sample is the trace shape the counters convert into.
type Sample struct{ Reads, Writes, Spilled uint64 }

func (c Counters) Sample() Sample {
	return Sample{Reads: c.Reads, Writes: c.Writes}
}

// Record drives the fake field so the fixture mirrors a real drift:
// the hot path counts events that aggregation then loses.
func (c *Counters) Record(spill bool) {
	c.Reads++
	if spill {
		c.Spilled++
	}
}

// MergeCounters drifts the same way: it folds two fields by hand
// instead of delegating to Add.
func MergeCounters(cs ...Counters) Counters { // want `MergeCounters aggregates drift\.Counters without calling Add and without referencing field Spilled`
	var total Counters
	for _, c := range cs {
		total.Reads += c.Reads
		total.Writes += c.Writes
	}
	return total
}
