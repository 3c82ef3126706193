package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"selfserv/internal/journal"
	"selfserv/internal/message"
)

// Process and runtime counters read at the edges of a phase.

type counters struct {
	cpu                       time.Duration // process user + system time
	allocs                    uint64        // heap objects allocated
	gcCPU, totalCPU, mutexSec float64       // runtime/metrics CPU classes and mutex wait, seconds
	gcCycles                  uint64
	sched                     *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

// processCPU is the user and system time the process's threads have
// used so far. Time the machine gives to other tenants is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() counters {
	ss := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ss[i].Name = name
	}
	metrics.Read(ss)
	return counters{
		cpu:      processCPU(),
		allocs:   ss[0].Value.Uint64(),
		gcCPU:    ss[1].Value.Float64(),
		totalCPU: ss[2].Value.Float64(),
		mutexSec: ss[3].Value.Float64(),
		gcCycles: ss[4].Value.Uint64(),
		sched:    ss[5].Value.Float64Histogram(),
	}
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// histPercentile returns the p-th percentile (0 < p <= 1) of the
// difference between two snapshots of one runtime histogram, as the
// upper bound of the bucket it falls in.
func histPercentile(before, after *metrics.Float64Histogram, p float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(p*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= target {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// codecReplay times the message codec on the frames a traced run sent
// for execs sampled executions: each frame is encoded and decoded the
// way the transports do it, repeatedly, for at least minTime.
func codecReplay(frames [][]*message.Message, execs int, minTime time.Duration) (encUs, decUs, decAllocs float64, err error) {
	if len(frames) == 0 || execs == 0 {
		return 0, 0, 0, fmt.Errorf("codec replay: no frames captured")
	}
	encode := func(ms []*message.Message) ([]byte, error) {
		if len(ms) == 1 {
			return message.Marshal(ms[0])
		}
		return message.MarshalBatch(ms)
	}
	wire := make([][]byte, len(frames))
	for i, ms := range frames {
		if wire[i], err = encode(ms); err != nil {
			return 0, 0, 0, err
		}
	}
	passes := 0
	t0 := time.Now()
	for passes < 3 || time.Since(t0) < minTime {
		for _, ms := range frames {
			if _, err := encode(ms); err != nil {
				return 0, 0, 0, err
			}
		}
		passes++
	}
	encUs = float64(time.Since(t0).Microseconds()) / float64(passes*execs)

	decode := func(i int) error {
		if len(frames[i]) == 1 {
			_, err := message.Unmarshal(wire[i])
			return err
		}
		_, err := message.UnmarshalBatch(wire[i])
		return err
	}
	before := readCounters().allocs
	passes = 0
	t0 = time.Now()
	for passes < 3 || time.Since(t0) < minTime {
		for i := range wire {
			if err := decode(i); err != nil {
				return 0, 0, 0, err
			}
		}
		passes++
	}
	decUs = float64(time.Since(t0).Microseconds()) / float64(passes*execs)
	decAllocs = float64(readCounters().allocs-before) / float64(passes*execs)
	return encUs, decUs, decAllocs, nil
}

// journalReplay reopens a copy of a crashed journal, replays it, and
// appends every replayed record into a fresh journal: the read side and
// the write side of the journal, timed on a history the run wrote.
type journalTimes struct {
	openS, replayRecPerS, appendUsPerRecord float64
}

func journalReplay(history, scratch string) (journalTimes, error) {
	var jt journalTimes
	dir := filepath.Join(scratch, "replay")
	if err := copyDir(history, dir); err != nil {
		return jt, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	j, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		return jt, err
	}
	jt.openS = time.Since(t0).Seconds()
	var recs []*journal.Record
	t1 := time.Now()
	err = j.Replay(func(r *journal.Record) error {
		recs = append(recs, r)
		return nil
	})
	replay := time.Since(t1)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return jt, err
	}
	if len(recs) == 0 {
		return jt, fmt.Errorf("journal replay: no records")
	}
	jt.replayRecPerS = float64(len(recs)) / replay.Seconds()

	fresh := filepath.Join(scratch, "reappend")
	defer os.RemoveAll(fresh)
	j2, err := journal.Open(journal.Options{Dir: fresh, Fsync: journal.FsyncOff})
	if err != nil {
		return jt, err
	}
	t2 := time.Now()
	for _, r := range recs {
		if err := j2.Append(r); err != nil {
			j2.Close()
			return jt, err
		}
	}
	jt.appendUsPerRecord = float64(time.Since(t2).Microseconds()) / float64(len(recs))
	return jt, j2.Close()
}

// recoveryTrial times one restart after a crash: a new platform over a
// copy of the crashed history, its fleet reassembled and the chart
// redeployed, and Platform.Recover. It returns the restart's wall and
// CPU time and the CPU time of the Recover call alone. Every journaled
// execution must come back as finished.
func recoveryTrial(s spec, history, dir string, want int) (wall, cpu, recoverCPU time.Duration, err error) {
	if err := copyDir(history, dir); err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	runtime.GC() // every trial starts from the same heap
	t0, c0 := time.Now(), processCPU()
	f, _, err := assemble(s, nil, dir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.close()
	c1 := processCPU()
	stats, err := f.p.Recover(context.Background())
	c2 := processCPU()
	wall = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if stats.Finished != want {
		return 0, 0, 0, fmt.Errorf("recovery: %d finished executions, want %d (%s)", stats.Finished, want, stats)
	}
	return wall, c2 - c0, c2 - c1, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
