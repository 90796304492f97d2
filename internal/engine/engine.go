// Package engine scales the simulator beyond a single memory
// controller: it shards the physical address space across N independent
// imc.Controller instances with the line-interleaved channel mapping of
// the real Cascade Lake platform (6 IMC channels per socket), and runs
// experiment suites concurrently on a worker pool.
//
// # Channel sharding
//
// A Sharded controller routes line address L to channel L mod N, and
// presents the channel-local address L div N to that channel's
// controller — exactly how the socket's system address decoder
// interleaves consecutive lines across IMC channels. Each channel owns
// a 1/N slice of the DRAM cache and the NVRAM space, with its own tag
// store, modules and counters; channels share no state, so they can be
// driven from separate goroutines without synchronization.
//
// # Determinism guarantee
//
// When N divides the serial controller's set count (always true for the
// Cascade Lake geometry, whose capacities carry the factor 6), line
// interleaving maps every serial cache set onto exactly one
// channel-local set, bijectively, preserving tags: serial set s lands
// on channel s mod N as local set s div N, and a line's local tag
// equals its serial tag. Cache decisions (hit, clean/dirty miss, victim
// choice, LRU order, ownership bits) are purely per-set, so each
// channel reproduces the serial controller's per-set decision sequences
// exactly, and the field-wise merge of the channel counters via
// imc.Counters.Add — commutative and associative, hence
// order-independent — is byte-identical to the serial run's counters.
// TestShardedMatchesSerial asserts this property over random streams.
package engine

import (
	"fmt"
	"sync"

	"twolm/internal/cache"
	"twolm/internal/dram"
	"twolm/internal/fastdiv"
	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/telemetry"
)

// ShardConfig assembles a Sharded controller.
type ShardConfig struct {
	// Channels is the number of IMC channels (6 on Cascade Lake).
	Channels int
	// DRAMCapacity is the total DRAM cache capacity in bytes across all
	// channels; each channel owns 1/Channels of it.
	DRAMCapacity uint64
	// NVRAMCapacity is the total NVRAM capacity in bytes.
	NVRAMCapacity uint64
	// Policy is the per-channel controller policy.
	Policy imc.Policy
}

// Sharded is an N-channel memory controller: N independent
// imc.Controllers over a line-interleaved address split.
//
// # Concurrency contract
//
// Replay and ReplayParallel own all channel state for their full
// duration. Counters, ChannelCounters, Snapshot, ResetCounters and
// FlushAll take the same lock, so calling them mid-run is safe: the
// call blocks until the in-flight replay completes and then observes
// the post-replay state. (Before this guard existed, a mid-run
// Counters call raced with the replay workers; the regression test
// TestCountersDuringReplayParallel pins the fix under -race.)
type Sharded struct {
	shards []*imc.Controller
	n      uint64
	// nDiv divides by the channel count without a hardware divide;
	// route runs once per replayed op, so the divider matters the same
	// way it does in the per-line demand pipeline.
	nDiv fastdiv.Divisor

	// mu serializes replays against counter observation — see the
	// concurrency contract above.
	mu sync.Mutex

	// Telemetry: merged-counter samples recorded at replay chunk
	// barriers, clocked by demand lines so a sharded series is
	// byte-identical to a serial controller's over the same op stream.
	sink        telemetry.Sink
	sampleEvery uint64
	nextSample  uint64
	lastSample  uint64
	haveSample  bool
}

// NewSharded builds a sharded controller. The per-channel DRAM slice
// must hold a whole number of sets (equivalently: Channels must divide
// the serial set count), which is what makes the sharded run
// counter-identical to a serial run — see the package documentation.
func NewSharded(cfg ShardConfig) (*Sharded, error) {
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("engine: channel count %d must be positive", cfg.Channels)
	}
	n := uint64(cfg.Channels)
	ways := uint64(cfg.Policy.Ways)
	if cfg.Policy.Ways < 1 {
		return nil, fmt.Errorf("engine: policy ways %d must be >= 1", cfg.Policy.Ways)
	}
	if cfg.DRAMCapacity == 0 || cfg.DRAMCapacity%(n*ways*mem.Line) != 0 {
		return nil, fmt.Errorf("engine: DRAM capacity %d must split into %d channels of whole %d-way sets",
			cfg.DRAMCapacity, cfg.Channels, cfg.Policy.Ways)
	}
	if cfg.NVRAMCapacity == 0 || cfg.NVRAMCapacity%(n*mem.Line) != 0 {
		return nil, fmt.Errorf("engine: NVRAM capacity %d must split into %d channels of whole lines",
			cfg.NVRAMCapacity, cfg.Channels)
	}
	s := &Sharded{shards: make([]*imc.Controller, cfg.Channels), n: n, nDiv: fastdiv.New(n)}
	for i := range s.shards {
		d, err := dram.New(1, cfg.DRAMCapacity/n)
		if err != nil {
			return nil, fmt.Errorf("engine: channel %d: %w", i, err)
		}
		nv, err := nvram.New(1, cfg.NVRAMCapacity/n)
		if err != nil {
			return nil, fmt.Errorf("engine: channel %d: %w", i, err)
		}
		ctrl, err := imc.New(d, nv, imc.WithPolicy(cfg.Policy))
		if err != nil {
			return nil, fmt.Errorf("engine: channel %d: %w", i, err)
		}
		s.shards[i] = ctrl
	}
	return s, nil
}

// Channels returns the channel count.
func (s *Sharded) Channels() int { return len(s.shards) }

// Shard returns channel i's controller, for per-channel inspection.
// Like every observer it takes the replay lock: the shards slice is
// written by replay workers, and an unlocked read here is exactly the
// PR 4 observation-race shape shardsafe now rejects.
func (s *Sharded) Shard(i int) *imc.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i]
}

// ChannelOf returns the channel that owns addr's line.
func (s *Sharded) ChannelOf(addr uint64) int {
	return int(s.nDiv.Mod(addr >> mem.LineShift))
}

// route resolves addr to its owning channel and channel-local address.
// The sub-line offset is preserved so media-granularity modeling in the
// NVRAM module keeps seeing byte addresses.
func (s *Sharded) route(addr uint64) (ctrl *imc.Controller, local uint64) {
	line := addr >> mem.LineShift
	q, r := s.nDiv.DivMod(line)
	local = q<<mem.LineShift | (addr & (mem.Line - 1))
	return s.shards[r], local
}

// LLCRead services a demand read through the owning channel.
//
//hot:entry per-line demand path, callable while observers run
func (s *Sharded) LLCRead(addr uint64) cache.LookupResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctrl, local := s.route(addr)
	return ctrl.LLCRead(local)
}

// LLCWrite services an LLC writeback through the owning channel.
//
//hot:entry per-line writeback path, callable while observers run
func (s *Sharded) LLCWrite(addr uint64) (cache.LookupResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctrl, local := s.route(addr)
	return ctrl.LLCWrite(local)
}

// Counters returns the counters of all channels merged field-wise via
// imc.Counters.Add. Add is commutative and associative, so the merge is
// independent of channel order and of the interleaving the scheduler
// chose during a parallel replay. Safe to call during a replay: it
// blocks until the replay completes (see the concurrency contract).
//
//hot:entry the observer half of the PR 4 race: runs concurrently with replays
func (s *Sharded) Counters() imc.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countersLocked()
}

func (s *Sharded) countersLocked() imc.Counters {
	var total imc.Counters
	for _, sh := range s.shards {
		total = total.Add(sh.Counters())
	}
	return total
}

// ChannelCounters returns a per-channel counter snapshot, for balance
// inspection. Safe to call during a replay: it blocks until the replay
// completes.
func (s *Sharded) ChannelCounters() []imc.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]imc.Counters, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Counters()
	}
	return out
}

// ResetCounters zeroes every channel's counters (and, as on the
// single-controller path, the backing module counters).
func (s *Sharded) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.ResetCounters()
	}
	if s.sink != nil {
		// The demand clock rewound to zero; restart the sampling phase.
		s.haveSample = false
		s.lastSample = 0
		s.nextSample = telemetry.NextBoundary(0, s.sampleEvery)
	}
}

// FlushAll flushes every channel's DRAM cache.
func (s *Sharded) FlushAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.FlushAll()
	}
}

// SetTelemetry attaches (or, with a nil sink, detaches) a telemetry
// sink sampled every `every` demand lines at replay chunk barriers.
// The recorded series uses the same demand-boundary rule as the serial
// controller hook, so for the same op stream the two series are
// byte-identical.
func (s *Sharded) SetTelemetry(sink telemetry.Sink, every uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
	s.sampleEvery = every
	s.haveSample = false
	s.lastSample = 0
	if sink != nil {
		s.nextSample = telemetry.NextBoundary(s.countersLocked().Demand(), every)
	}
}

// Snapshot implements telemetry.Source: the merged channel counters,
// with per-channel CAS slices concatenated in channel order. Because
// each shard owns a single-channel DRAM module and shard i serves
// global channel i, the concatenation is element-identical to a serial
// controller's per-channel counters over the same stream. Media
// counters are absent, as on the serial controller (see
// imc.Controller.Snapshot). Safe to call during a replay: it blocks
// until the replay completes.
func (s *Sharded) Snapshot() telemetry.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Sharded) snapshotLocked() telemetry.Sample {
	sample := s.countersLocked().Sample()
	sample.ChannelReads = make([]uint64, 0, len(s.shards))
	sample.ChannelWrites = make([]uint64, 0, len(s.shards))
	for _, sh := range s.shards {
		for _, ch := range sh.DRAM.ChannelCounters() {
			sample.ChannelReads = append(sample.ChannelReads, ch.CASReads)
			sample.ChannelWrites = append(sample.ChannelWrites, ch.CASWrites)
		}
	}
	return sample
}

// recordLocked records a sample and advances the boundary.
func (s *Sharded) recordLocked(demand uint64) {
	s.sink.Record(s.snapshotLocked())
	s.lastSample = demand
	s.haveSample = true
	s.nextSample = telemetry.NextBoundary(demand, s.sampleEvery)
}

// maybeSampleLocked records a sample if the demand clock crossed the
// sampling boundary.
func (s *Sharded) maybeSampleLocked() {
	d := s.countersLocked().Demand()
	if d < s.nextSample {
		return
	}
	s.recordLocked(d)
}

// FlushTelemetry records a final sample for the partial tail interval
// if demand advanced past the last recorded sample (or none was
// recorded yet). No-op without a sink.
func (s *Sharded) FlushTelemetry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sink == nil {
		return
	}
	d := s.countersLocked().Demand()
	if s.haveSample && d == s.lastSample {
		return
	}
	s.recordLocked(d)
}

// Op is one LLC-level request: a demand read or a writeback.
type Op struct {
	Write bool
	Addr  uint64
}

// Replay drives the ops through the sharded controller in order on the
// calling goroutine. It holds the replay lock for its full duration.
//
//hot:entry suite runners and the job pool replay concurrently with observers
func (s *Sharded) Replay(ops []Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replayChunked(ops, 1)
}

// replayChunked splits ops into chunks ending exactly at telemetry
// sampling boundaries and replays each chunk (in parallel when workers
// allow), sampling at every chunk barrier. Each op is one demand line,
// so the chunk cut where cumulative demand reaches the next boundary
// is computable up front; with no sink the whole stream is one chunk
// and the only added cost is one branch.
func (s *Sharded) replayChunked(ops []Op, workers int) {
	for len(ops) > 0 {
		chunk := ops
		if s.sink != nil {
			if d := s.countersLocked().Demand(); s.nextSample > d && s.nextSample-d < uint64(len(ops)) {
				chunk = ops[:s.nextSample-d]
			}
		}
		ops = ops[len(chunk):]
		if workers > 1 {
			s.replayParallelLocked(chunk, workers)
		} else {
			for _, op := range chunk {
				ctrl, local := s.route(op.Addr)
				if op.Write {
					ctrl.LLCWrite(local)
				} else {
					ctrl.LLCRead(local)
				}
			}
		}
		if s.sink != nil {
			s.maybeSampleLocked()
		}
	}
}

// partition splits ops into per-channel subsequences, preserving the
// original relative order within each channel — the property that keeps
// per-set decision sequences identical to a serial replay.
func (s *Sharded) partition(ops []Op) [][]Op {
	counts := make([]int, len(s.shards))
	for _, op := range ops {
		counts[s.ChannelOf(op.Addr)]++
	}
	parts := make([][]Op, len(s.shards))
	for i, c := range counts {
		parts[i] = make([]Op, 0, c)
	}
	for _, op := range ops {
		ch := s.ChannelOf(op.Addr)
		parts[ch] = append(parts[ch], op)
	}
	return parts
}

// ReplayParallel partitions ops by channel and drives the channels
// concurrently on up to workers goroutines. Each channel is owned by
// exactly one goroutine, so no channel state is shared; the merged
// counters equal those of a serial Replay of the same ops. It holds
// the replay lock for its full duration; with a telemetry sink the
// stream is replayed in boundary-aligned chunks with a barrier sample
// after each, which keeps the recorded series identical to a serial
// replay's.
//
//hot:entry launches the replay workers that mutate the per-channel controllers
func (s *Sharded) ReplayParallel(ops []Op, workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replayChunked(ops, workers)
}

// replayParallelLocked fans one chunk out over the channel partitions.
func (s *Sharded) replayParallelLocked(ops []Op, workers int) {
	parts := s.partition(ops)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Channels are distributed round-robin; each is touched by
			// exactly one worker.
			for ch := w; ch < len(parts); ch += workers {
				s.replayLocal(ch, parts[ch])
			}
		}(w)
	}
	wg.Wait()
}

// replayLocal drives one channel's subsequence, translating global
// addresses to channel-local ones.
func (s *Sharded) replayLocal(ch int, part []Op) {
	ctrl := s.shards[ch]
	for _, op := range part {
		line := op.Addr >> mem.LineShift
		local := s.nDiv.Div(line)<<mem.LineShift | (op.Addr & (mem.Line - 1))
		if op.Write {
			ctrl.LLCWrite(local)
		} else {
			ctrl.LLCRead(local)
		}
	}
}
