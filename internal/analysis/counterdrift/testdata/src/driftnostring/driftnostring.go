// Package driftnostring drops a required method entirely.
package driftnostring

type Counters struct { // want `Counters has no String method` `Counters has no Sub method` `Counters has no Sample method`
	Reads uint64
}

func (c Counters) Add(o Counters) Counters {
	c.Reads += o.Reads
	return c
}
