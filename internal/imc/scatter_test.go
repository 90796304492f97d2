package imc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/telemetry"
)

// newScatterController builds one controller with the differential-run
// geometry of newRangePair.
func newScatterController(t *testing.T, policy Policy) *Controller {
	t.Helper()
	c, _ := newRangePair(t, policy)
	return c
}

// scatterStream generates a deterministic LFSR-random request stream
// over span lines: every line touched once per pass, alternating reads
// and writes on the index parity, for two passes (the second pass runs
// against the dirtied state the first left behind, so hits, clean
// misses, dirty victims, and DDO writebacks all occur).
func scatterStream(t *testing.T, spanLines uint64) []Req {
	t.Helper()
	reqs := make([]Req, 0, 2*spanLines)
	for pass := 0; pass < 2; pass++ {
		err := lfsr.Sequence(spanLines, 0xBEEF+uint32(pass), func(idx uint64) {
			addr := idx * mem.Line
			if (idx+uint64(pass))&1 == 0 {
				reqs = append(reqs, ReadReq(addr))
			} else {
				reqs = append(reqs, WriteReq(addr))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// replaySerial dispatches reqs through the per-line entry points in
// slice order — the reference semantics LLCScatter must reproduce.
func replaySerial(c *Controller, reqs []Req) {
	for _, r := range reqs {
		if uint64(r)&1 == 0 {
			c.LLCRead(uint64(r))
		} else {
			c.LLCWrite(uint64(r) &^ 1)
		}
	}
}

// TestScatterMatchesPerLine is the tentpole legality proof: over the
// same mixed LFSR-random request stream — split into odd-sized batches
// that straddle the dispatch chunk size — LLCScatter produces
// byte-identical imc.Counters, per-channel CAS counts, and NVRAM
// interface and media counters to per-line dispatch in request order,
// for every policy ablation at Ways 1 and 4.
func TestScatterMatchesPerLine(t *testing.T) {
	for _, pc := range policyMatrix() {
		name, policy := fmt.Sprintf("%s-w%d", pc.ablation, pc.ways), pc.policy
		t.Run(name, func(t *testing.T) {
			perLine, batched := newRangePair(t, policy)
			spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
			reqs := scatterStream(t, spanLines)
			// 1337 is odd and not a divisor or multiple of dispatchChunk,
			// so batches end mid-chunk and chunks straddle batch edges.
			const batch = 1337
			for off := 0; off < len(reqs); off += batch {
				end := off + batch
				if end > len(reqs) {
					end = len(reqs)
				}
				replaySerial(perLine, reqs[off:end])
				batched.LLCScatter(reqs[off:end])
			}
			assertSameTraffic(t, name, perLine, batched)
		})
	}
}

// TestScatterWrappersMatchPerLine pins the address-slice wrappers:
// LLCReadScatter and LLCWriteScatter are byte-identical to per-line
// LLCRead/LLCWrite in slice order.
func TestScatterWrappersMatchPerLine(t *testing.T) {
	for _, pc := range policyMatrix() {
		name, policy := fmt.Sprintf("%s-w%d", pc.ablation, pc.ways), pc.policy
		t.Run(name, func(t *testing.T) {
			perLine, batched := newRangePair(t, policy)
			spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
			addrs := make([]uint64, 0, spanLines)
			err := lfsr.Sequence(spanLines, 0xACE1, func(idx uint64) {
				addrs = append(addrs, idx*mem.Line)
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range addrs {
				perLine.LLCRead(a)
			}
			batched.LLCReadScatter(addrs)
			for _, a := range addrs {
				perLine.LLCWrite(a)
			}
			batched.LLCWriteScatter(addrs)
			assertSameTraffic(t, name, perLine, batched)
		})
	}
}

// TestScatterChunkBoundaries sweeps batch lengths around the dispatch
// chunk size (empty, single, one off either side of one and two full
// chunks), where cursor and chunk-slicing bugs would live.
func TestScatterChunkBoundaries(t *testing.T) {
	sizes := []int{0, 1, 2, dispatchChunk - 1, dispatchChunk,
		dispatchChunk + 1, 2*dispatchChunk - 1, 2 * dispatchChunk, 2*dispatchChunk + 3}
	perLine, batched := newRangePair(t, HardwarePolicy())
	spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
	stream := scatterStream(t, spanLines)
	off := 0
	for _, n := range sizes {
		if off+n > len(stream) {
			t.Fatalf("stream too short: need %d have %d", off+n, len(stream))
		}
		reqs := stream[off : off+n]
		off += n
		replaySerial(perLine, reqs)
		batched.LLCScatter(reqs)
	}
	assertSameTraffic(t, "chunk-boundaries", perLine, batched)
}

// TestScatterShuffleCommutes is the commutation property of the
// deferred NVRAM work: the per-(DIMM, direction) queues a batch
// defers may be applied in ANY order without changing a single
// counter, because DIMMs share no state and within a DIMM the read
// path and the write path touch disjoint fields. The scatShuffle hook
// permutes the queue apply order with a seeded PRNG per batch; the
// run must stay byte-identical — imc.Counters, per-channel CAS, NVRAM
// interface and media counters, and the telemetry Recorder's CSV and
// JSON series — to both an unshuffled batched run and the per-line
// reference. (The serial-vs-sharded replay Recorder identity is pinned
// separately by engine.TestTelemetrySerialVsSharded.)
func TestScatterShuffleCommutes(t *testing.T) {
	for _, pc := range policyMatrix() {
		name, policy := fmt.Sprintf("%s-w%d", pc.ablation, pc.ways), pc.policy
		t.Run(name, func(t *testing.T) {
			const every = 4096
			run := func(shuffleSeed int64) (*Controller, []byte, []byte) {
				c := newScatterController(t, policy)
				rec := telemetry.NewRecorder()
				c.SetTelemetry(rec, every)
				if shuffleSeed != 0 {
					rng := rand.New(rand.NewSource(shuffleSeed))
					c.scatShuffle = func(order []uint32) {
						rng.Shuffle(len(order), func(i, j int) {
							order[i], order[j] = order[j], order[i]
						})
					}
				}
				spanLines := uint64(2*c.DRAM.Capacity()) / mem.Line
				reqs := scatterStream(t, spanLines)
				const batch = 997
				for off := 0; off < len(reqs); off += batch {
					end := off + batch
					if end > len(reqs) {
						end = len(reqs)
					}
					c.LLCScatter(reqs[off:end])
				}
				c.FlushTelemetry()
				var csv, js bytes.Buffer
				if err := rec.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				if err := rec.WriteJSON(&js); err != nil {
					t.Fatal(err)
				}
				return c, csv.Bytes(), js.Bytes()
			}

			base, baseCSV, baseJSON := run(0)
			for _, seed := range []int64{1, 42, 0xD15C} {
				shuf, shufCSV, shufJSON := run(seed)
				assertSameTraffic(t, name, base, shuf)
				if !bytes.Equal(baseCSV, shufCSV) {
					t.Errorf("%s seed %d: CSV telemetry series diverges under shuffled queue order:\nbase:\n%s\nshuffled:\n%s",
						name, seed, baseCSV, shufCSV)
				}
				if !bytes.Equal(baseJSON, shufJSON) {
					t.Errorf("%s seed %d: JSON telemetry series diverges under shuffled queue order", name, seed)
				}
			}
			if len(baseCSV) == 0 || !bytes.Contains(baseCSV, []byte("\n")) {
				t.Fatalf("%s: recorder produced no series", name)
			}

			// The unshuffled batched run itself matches per-line dispatch
			// (counter identity; the per-line sample boundaries differ, so
			// only the counters are compared here).
			perLine := newScatterController(t, policy)
			spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
			replaySerial(perLine, scatterStream(t, spanLines))
			assertSameTraffic(t, name+"-vs-per-line", perLine, base)
		})
	}
}

// TestScatterReversedQueueOrder pins the strongest fixed permutation —
// the exact reverse, which applies every write queue before every read
// queue — deterministically rather than through a PRNG.
func TestScatterReversedQueueOrder(t *testing.T) {
	perLine, batched := newRangePair(t, HardwarePolicy())
	batched.scatShuffle = func(order []uint32) {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
	reqs := scatterStream(t, spanLines)
	replaySerial(perLine, reqs)
	batched.LLCScatter(reqs)
	assertSameTraffic(t, "reversed", perLine, batched)
}

// TestScatterEmptyBatch pins that an empty batch is a no-op.
func TestScatterEmptyBatch(t *testing.T) {
	perLine, batched := newRangePair(t, HardwarePolicy())
	batched.LLCScatter(nil)
	batched.LLCReadScatter(nil)
	batched.LLCWriteScatter(nil)
	assertSameTraffic(t, "empty", perLine, batched)
}
