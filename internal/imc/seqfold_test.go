package imc

import (
	"testing"

	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// newFoldPair builds two identically configured controllers with a
// small DRAM cache (3072 sets) so modest ranges cross the probe wrap
// into the uniform remainder of the closed-form fold.
func newFoldPair(t *testing.T, policy Policy) (perLine, batched *Controller) {
	t.Helper()
	build := func() *Controller {
		d, err := dram.New(6, 192*mem.KiB)
		if err != nil {
			t.Fatal(err)
		}
		n, err := nvram.New(6, 48*mem.MiB)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(d, n, WithPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return build(), build()
}

// assertSameTagState asserts the two controllers' tag stores are in
// identical final states — the part of the fold the counter comparison
// cannot see (a wrong bulk stamp only shows up in later traffic). It
// compares every packed word, at any associativity.
func assertSameTagState(t *testing.T, label string, perLine, batched *Controller) {
	t.Helper()
	a, b := perLine.Cache.Entries(), batched.Cache.Entries()
	for h := range a {
		if a[h] != b[h] {
			t.Fatalf("%s: tag state diverges at entry %d: per-line %#x, batched %#x",
				label, h, a[h], b[h])
		}
	}
}

// foldLag is the writeback lag of the pair primings and split cases:
// the seq-demand geometry's lag (its LLC holds 64 lines).
const foldLag = 64

// foldPrimings returns named priming functions that put both
// controllers of a pair into interesting identical pre-range states.
func foldPrimings(sets uint64) map[string]func(c *Controller) {
	return map[string]func(c *Controller){
		"cold": func(c *Controller) {},
		"warm-clean": func(c *Controller) {
			// Every set valid and clean, tags one wrap behind the test
			// ranges' span start.
			for a := uint64(0); a < sets*mem.Line; a += mem.Line {
				c.LLCRead(a)
			}
		},
		"warm-dirty": func(c *Controller) {
			// Every set dirty — read folds must flush a full second wrap.
			for a := uint64(0); a < sets*mem.Line; a += mem.Line {
				c.LLCWrite(a)
			}
		},
		"dirty-stripe": func(c *Controller) {
			// Every other set dirty, so run commits alternate with
			// single-set steps.
			for a := uint64(0); a < sets*mem.Line; a += 2 * mem.Line {
				c.LLCWrite(a)
			}
		},
		"adversarial": func(c *Controller) {
			// Aliased strided traffic: alternating tags per set region,
			// a mix of dirty, clean, owned, and invalid sets, so a probe
			// wrap sees every Table-I outcome.
			for i := uint64(0); i < sets; i += 2 {
				c.LLCWrite((i*7%sets + (i%5)*sets) * mem.Line)
			}
			for i := uint64(0); i < sets; i += 3 {
				c.LLCRead((i + (i%3)*sets) * mem.Line)
			}
		},
		"previous-pass": func(c *Controller) {
			// The state a sequential pass over twice the cache leaves
			// behind, issued per line: a load sweep, then the store
			// sweep's interleaved writeback/read pairs with writebacks
			// foldLag lines behind — long runs of identical words.
			for a := uint64(0); a < 2*sets*mem.Line; a += mem.Line {
				c.LLCRead(a)
			}
			for i := uint64(0); i < 2*sets; i++ {
				if i >= foldLag {
					c.LLCWrite((i - foldLag) * mem.Line)
				}
				c.LLCRead(i * mem.Line)
			}
		},
		"striped": func(c *Controller) { primeStriped(c, sets) },
	}
}

// primeStriped installs runs of 1-9 consecutive lines cycling through
// six resident states, every (length, state) pair in turn, over lines
// [0, sets+40): the last runs wrap the set index, carrying the tag.
// With run lengths that are not multiples of 4 or 64, runs start and
// end at every offset of the 4-line media block and the 64-line NVRAM
// interleave chunk. States are relative to a request for line L:
// hit-clean, hit-dirty, owned (dirty and LLC-owned), clean miss and
// dirty miss (an alias five tags up), and invalid (untouched).
func primeStriped(c *Controller, sets uint64) {
	const alias = 5
	end := sets + 40
	for l := uint64(0); l < end; {
		for length := uint64(1); length <= 9 && l < end; length++ {
			for state := 0; state < 6 && l < end; state++ {
				for stop := min(l+length, end); l < stop; l++ {
					a, b := l*mem.Line, (l+alias*sets)*mem.Line
					switch state {
					case 0:
						c.LLCRead(a)
					case 1:
						c.LLCWrite(a)
					case 2:
						c.LLCWrite(a)
						c.LLCRead(a)
					case 3:
						c.LLCRead(b)
					case 4:
						c.LLCWrite(b)
					}
				}
			}
		}
	}
}

// TestSeqFoldLongRanges drives read and write ranges long enough to
// cross from the predicated probe wraps into the uniform remainder —
// including exact-wrap, wrap+1, and multi-wrap-plus-tail lengths at
// aligned and unaligned bases — against every policy and priming, and
// demands byte-identical traffic and final tag state versus per-line
// dispatch.
func TestSeqFoldLongRanges(t *testing.T) {
	for _, pc := range policyMatrix() {
		policy := pc.policy
		t.Run(pc.rangeName(), func(t *testing.T) {
			probe, _ := newFoldPair(t, policy)
			sets := probe.Cache.Sets()
			for pname, prime := range foldPrimings(sets) {
				t.Run(pname, func(t *testing.T) {
					perLine, batched := newFoldPair(t, policy)
					prime(perLine)
					prime(batched)
					for _, n := range []uint64{1, sets - 1, sets, sets + 1, 2*sets + 137, 3 * sets} {
						for _, base := range []uint64{0, 513 * mem.Line, 7*mem.Line + 24} {
							for a, i := base, uint64(0); i < n; i++ {
								perLine.LLCRead(a)
								a += mem.Line
							}
							batched.LLCReadRange(base, n)
							for a, i := base, uint64(0); i < n; i++ {
								perLine.LLCWrite(a)
								a += mem.Line
							}
							batched.LLCWriteRange(base, n)
						}
					}
					assertSameTraffic(t, pname, perLine, batched)
					assertSameTagState(t, pname, perLine, batched)
				})
			}
		})
	}
}

// TestWritebackReadRangeMatchesPerLine proves LLCWritebackReadRange —
// fold and fallback alike — generates exactly the traffic and state of
// the per-pair LLCWrite/LLCRead interleave it batches, across lags
// inside the fold window (1 to sets-1), at and beyond it (fallback),
// with mixed alignment, for every policy and priming. With n == sets,
// the reads at the end of the probe wrap reach the sets the head's
// per-line writes touched.
func TestWritebackReadRangeMatchesPerLine(t *testing.T) {
	for _, pc := range policyMatrix() {
		policy := pc.policy
		t.Run(pc.rangeName(), func(t *testing.T) {
			probe, _ := newFoldPair(t, policy)
			sets := probe.Cache.Sets()
			lags := []uint64{1, 7, foldLag, sets / 2, sets - 1, sets, sets + 5}
			for pname, prime := range foldPrimings(sets) {
				t.Run(pname, func(t *testing.T) {
					perLine, batched := newFoldPair(t, policy)
					prime(perLine)
					prime(batched)
					for _, lag := range lags {
						for _, n := range []uint64{1, sets, 2*sets + 77} {
							for _, off := range []uint64{0, 24} {
								waddr := 11*mem.Line + off
								raddr := waddr + lag*mem.Line - off
								for i := uint64(0); i < n; i++ {
									perLine.LLCWrite(waddr + i*mem.Line)
									perLine.LLCRead(raddr + i*mem.Line)
								}
								batched.LLCWritebackReadRange(waddr, raddr, n)
							}
						}
					}
					// Degenerate orderings must take the fallback.
					perLine.LLCWrite(5 * mem.Line)
					perLine.LLCRead(5 * mem.Line)
					batched.LLCWritebackReadRange(5*mem.Line, 5*mem.Line, 1)
					perLine.LLCWrite(9 * mem.Line)
					perLine.LLCRead(3 * mem.Line)
					batched.LLCWritebackReadRange(9*mem.Line, 3*mem.Line, 1)
					batched.LLCWritebackReadRange(0, mem.Line, 0)
					assertSameTraffic(t, pname, perLine, batched)
					assertSameTagState(t, pname, perLine, batched)
				})
			}
		})
	}
}

// TestRangeSplitCommutes is the range-split property test: servicing a
// sequential range in one call and servicing it as back-to-back
// subranges split at arbitrary cut points must produce byte-identical
// traffic and tag state — the fold's segment boundaries (probe wraps,
// run commits, the pair probe's steps, uniform remainder, stamp
// window) cannot leak into the results. Read, write and writeback+read
// ranges are each split, from every priming.
func TestRangeSplitCommutes(t *testing.T) {
	for _, pc := range policyMatrix() {
		policy := pc.policy
		t.Run(pc.rangeName(), func(t *testing.T) {
			probe, _ := newFoldPair(t, policy)
			sets := probe.Cache.Sets()
			n := 3*sets + 311
			cutVectors := [][]uint64{
				{1},                       // peel one line
				{sets},                    // exactly the probe wrap
				{sets + 1},                // one past it
				{sets / 3, sets + 7},      // mid-wrap and early-uniform
				{2*sets + 5, 3 * sets},    // both cuts in the remainder
				{1, 2, 3, sets, 3 * sets}, // many uneven pieces
			}
			for pname, prime := range foldPrimings(sets) {
				for _, cuts := range cutVectors {
					for _, op := range []string{"read", "write", "pair"} {
						whole, split := newFoldPair(t, policy)
						prime(whole)
						prime(split)
						const base = 17 * mem.Line
						run := func(c *Controller, start, cnt uint64) {
							a := base + start*mem.Line
							switch op {
							case "read":
								c.LLCReadRange(a, cnt)
							case "write":
								c.LLCWriteRange(a, cnt)
							default:
								c.LLCWritebackReadRange(a, a+foldLag*mem.Line, cnt)
							}
						}
						run(whole, 0, n)
						prev := uint64(0)
						for _, cut := range cuts {
							run(split, prev, cut-prev)
							prev = cut
						}
						run(split, prev, n-prev)
						label := pname + "-" + op
						assertSameTraffic(t, label, whole, split)
						assertSameTagState(t, label, whole, split)
					}
				}
			}
		})
	}
}

// newSeqDemandController builds a controller on the seq-demand
// geometry — a 24 MiB DRAM cache over six channels and six DIMMs — and
// returns it with its 2x-cache region's line count after one untimed
// warm-up pass.
func newSeqDemandController(b *testing.B) (c *Controller, lines uint64) {
	b.Helper()
	d, err := dram.New(6, 24*mem.MiB)
	if err != nil {
		b.Fatal(err)
	}
	n, err := nvram.New(6, 384*mem.MiB)
	if err != nil {
		b.Fatal(err)
	}
	c, err = New(d, n)
	if err != nil {
		b.Fatal(err)
	}
	lines = 2 * c.Cache.Sets()
	loadPass(c, lines)
	storePass(c, lines)
	return c, lines
}

// loadPass and storePass issue the controller traffic of a sequential
// load and store pass over lines [0, lines) behind a foldLag-line LLC:
// the load pass first drains the LLC's dirty tail, and the store pass's
// writebacks trail its demand reads by foldLag lines.
func loadPass(c *Controller, lines uint64) {
	c.LLCWriteRange((lines-foldLag)*mem.Line, foldLag)
	c.LLCReadRange(0, lines)
}

func storePass(c *Controller, lines uint64) {
	c.LLCReadRange(0, foldLag)
	c.LLCWritebackReadRange(0, foldLag*mem.Line, lines-foldLag)
}

// reportPerLine reports the benchmark's time per demand line, where
// each iteration timed lines demand lines.
func reportPerLine(b *testing.B, lines uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*lines), "ns/line")
}

// BenchmarkReadRangeAfterPass times the load pass's LLCReadRange over a
// 2x-cache region, each time starting from the tag state the previous
// store pass left (the store pass and the LLC drain run untimed).
func BenchmarkReadRangeAfterPass(b *testing.B) {
	c, lines := newSeqDemandController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		storePass(c, lines)
		c.LLCWriteRange((lines-foldLag)*mem.Line, foldLag)
		b.StartTimer()
		c.LLCReadRange(0, lines)
	}
	reportPerLine(b, lines)
}

// BenchmarkWritebackReadRangeAfterPass times the store pass's
// LLCWritebackReadRange over a 2x-cache region at lag foldLag, each
// time starting from the tag state the previous load pass left (the
// load pass runs untimed). Each timed line is one (writeback, read)
// pair.
func BenchmarkWritebackReadRangeAfterPass(b *testing.B) {
	c, lines := newSeqDemandController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loadPass(c, lines)
		c.LLCReadRange(0, foldLag)
		b.StartTimer()
		c.LLCWritebackReadRange(0, foldLag*mem.Line, lines-foldLag)
	}
	reportPerLine(b, lines-foldLag)
}
