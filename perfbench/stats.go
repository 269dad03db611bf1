package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpcspanner/internal/obs"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the interquartile mean of xs: the mean of what is left after
// the lowest and the highest quarter are dropped (0 when empty).
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	total := 0.0
	for _, x := range s {
		total += x
	}
	return total / float64(len(s))
}

func mapf[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// recorder keeps the benchmark's spans in memory until the run ends. Each
// span carries its own id, its parent's id (0 for a root) and the
// operation id it belongs to as obs.Span int attributes.
type recorder struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []obs.Span
}

func newRecorder() *recorder { return &recorder{} }

// id reserves a span id, so a parent can hand its id to children that end
// before it does.
func (r *recorder) id() int64 { return r.ids.Add(1) }

// add stores one finished span.
func (r *recorder) add(id int64, name string, start, end time.Time, parent int64, op int) {
	sp := obs.Span{Name: name, Start: start, Duration: end.Sub(start),
		Attrs: []obs.Attr{{Key: "id", Val: id}, {Key: "parent", Val: parent}, {Key: "op", Val: int64(op)}}}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// attr returns the value of a span's int attribute.
func attr(sp obs.Span, key string) int64 {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}
