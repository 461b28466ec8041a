package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
)

// Trace replay: the paper's most convincing dataset is a production trace
// (the SK Telecom private cloud). This file provides a block-trace format
// and replayer so real traces — or synthesized ones — can be driven through
// any configuration of the store.
//
// The format is one operation per line:
//
//	<ts_us> <op> <offset> <length> [content-seed]
//
// where op is R or W, ts_us is the issue time in microseconds relative to
// trace start, and content-seed (writes only) deterministically selects the
// written content — equal seeds produce equal bytes, so a trace encodes its
// own duplication structure. Lines starting with '#' are comments.

// TraceOp is one operation of a block trace.
type TraceOp struct {
	At     time.Duration
	Write  bool
	Offset int64
	Length int64
	Seed   int64 // content seed (writes)
}

// ParseTrace reads the trace format.
func ParseTrace(r io.Reader) ([]TraceOp, error) {
	var ops []TraceOp
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 4 {
			return nil, fmt.Errorf("workload: trace line %d: want >=4 fields, got %d", line, len(fields))
		}
		ts, err1 := strconv.ParseInt(fields[0], 10, 64)
		off, err2 := strconv.ParseInt(fields[2], 10, 64)
		length, err3 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad number", line)
		}
		if ts < 0 || ts > math.MaxInt64/int64(time.Microsecond) {
			return nil, fmt.Errorf("workload: trace line %d: timestamp %d us out of range", line, ts)
		}
		op := TraceOp{At: time.Duration(ts) * time.Microsecond, Offset: off, Length: length}
		switch strings.ToUpper(fields[1]) {
		case "W":
			op.Write = true
			if len(fields) >= 5 {
				seed, err := strconv.ParseInt(fields[4], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("workload: trace line %d: bad seed", line)
				}
				op.Seed = seed
			} else {
				op.Seed = int64(line) * 2654435761
			}
		case "R":
		default:
			return nil, fmt.Errorf("workload: trace line %d: unknown op %q", line, fields[1])
		}
		if op.Offset < 0 || op.Length <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad extent [%d,+%d)", line, op.Offset, op.Length)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// FormatTrace writes ops in the trace format.
func FormatTrace(w io.Writer, ops []TraceOp) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# ts_us op offset length [seed]")
	for _, op := range ops {
		kind := "R"
		if op.Write {
			kind = "W"
		}
		if op.Write {
			fmt.Fprintf(bw, "%d %s %d %d %d\n", op.At.Microseconds(), kind, op.Offset, op.Length, op.Seed)
		} else {
			fmt.Fprintf(bw, "%d %s %d %d\n", op.At.Microseconds(), kind, op.Offset, op.Length)
		}
	}
	return bw.Flush()
}

// TraceResult aggregates a replay.
type TraceResult struct {
	Reads, Writes *metrics.Recorder
	Errors        int
	Elapsed       sim.Time
}

// ReplayTrace drives a trace against a block device with open-loop timing:
// each op issues at its recorded timestamp (scaled by timeScale; 1.0 =
// as-recorded, 0 = as fast as the workers allow), and `workers` bounds
// concurrent in-flight operations. Latency includes queueing behind slow
// configurations, as with the SFS runner.
func ReplayTrace(p *sim.Proc, dev *client.BlockDevice, ops []TraceOp, timeScale float64, workers int) TraceResult {
	if workers < 1 {
		workers = 1
	}
	res := TraceResult{Reads: metrics.NewRecorder(), Writes: metrics.NewRecorder()}
	start := p.Now()
	queue := sim.NewQueue[TraceOp]()

	sched := p.Go("trace.sched", func(q *sim.Proc) {
		for _, op := range ops {
			issueAt := start + sim.Time(float64(op.At)*timeScale)
			if q.Now() < issueAt {
				q.SleepUntil(issueAt)
			}
			queue.Push(q, op)
		}
		queue.Close(q)
	})

	var sigs []*sim.Signal
	for w := 0; w < workers; w++ {
		sigs = append(sigs, p.Go(fmt.Sprintf("trace.w%d", w), func(q *sim.Proc) {
			for {
				op, ok := queue.Pop(q)
				if !ok {
					return
				}
				opStart := q.Now()
				// Refuse an extent off the device before allocating its buffer.
				if op.Offset < 0 || op.Length < 0 || op.Length > dev.Size()-op.Offset {
					res.Errors++
					continue
				}
				if op.Write {
					buf := make([]byte, op.Length)
					fillRandom(buf, op.Seed)
					if err := dev.WriteAt(q, op.Offset, buf); err != nil {
						res.Errors++
						continue
					}
					res.Writes.Record(q.Now(), (q.Now() - opStart).Duration(), int(op.Length))
				} else {
					data, err := dev.ReadAt(q, op.Offset, op.Length)
					if err != nil {
						res.Errors++
						continue
					}
					res.Reads.Record(q.Now(), (q.Now() - opStart).Duration(), len(data))
				}
			}
		}))
	}
	sim.WaitAll(p, append(sigs, sched)...)
	res.Elapsed = p.Now() - start
	return res
}

// SynthesizeTrace builds a trace with the cloud generator's redundancy
// profile: a write-mostly burst populating the device followed by a mixed
// read/overwrite phase. Useful for demos and as a template for converting
// real traces.
func SynthesizeTrace(devSize int64, blockSize int64, ops int, dedupPct float64, seed int64) []TraceOp {
	gen := NewFIOGen(FIOConfig{BlockSize: blockSize, Span: devSize, DedupPct: dedupPct, Ops: ops, Seed: seed})
	_ = gen
	blocks := devSize / blockSize
	if blocks < 1 {
		blocks = 1
	}
	rng := newSplitMix(seed)
	var out []TraceOp
	t := time.Duration(0)
	for i := 0; i < ops; i++ {
		t += time.Duration(100+rng.next()%400) * time.Microsecond
		op := TraceOp{At: t, Offset: int64(rng.next()%uint64(blocks)) * blockSize, Length: blockSize}
		if i < ops/2 || rng.next()%100 < 40 {
			op.Write = true
			// Duplicate content with probability dedupPct.
			if float64(rng.next()%100) < dedupPct {
				op.Seed = seed + int64(rng.next()%64) // shared pool
			} else {
				op.Seed = seed + 1000 + int64(i)
			}
		}
		out = append(out, op)
	}
	return out
}

// splitMix is a tiny deterministic generator for trace synthesis.
type splitMix struct{ x uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{x: uint64(seed)*0x9e3779b97f4a7c15 + 1} }

func (s *splitMix) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
