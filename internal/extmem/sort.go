package extmem

// External sorting. Resident contents sort in memory (par.RadixSorter for
// key sorts, par.SortStableBuf for comparator sorts). Spilled contents sort
// in two phases:
//
//  1. chunking — stream the contents into budget-sized chunks, sort each
//     chunk in memory with those same primitives, write each back as a
//     sorted run;
//  2. merging — repeatedly merge adjacent run pairs with a streaming
//     stable merge built on par.MergeSorted, until one run remains.
//
// Both phases preserve stability, and every merge takes its left input
// from the earlier part of the original order, so the final permutation is
// the unique stable-sort permutation — bit-identical to the resident sort
// at every worker count and every budget.

import (
	"os"
	"sort"

	"mpcspanner/internal/par"
)

// SortKey stably sorts the contents ascending by key, exactly matching the
// resident radix sort's output order.
func (s *Store[T]) SortKey(key func(*T) uint64) error {
	if len(s.runs) == 0 {
		s.mem = s.sortMemKey(s.mem, key)
		return nil
	}
	return s.externalSort(key, func(a, b *T) bool { return key(a) < key(b) })
}

// SortLess stably sorts the contents by less, exactly matching the
// resident parallel merge sort's output order.
func (s *Store[T]) SortLess(less func(a, b *T) bool) error {
	if len(s.runs) == 0 {
		s.sortMemLess(s.mem, less)
		return nil
	}
	return s.externalSort(nil, less)
}

// sortMemKey is the resident key sort: extract radix keys, stable radix
// sort of (key, index), apply the permutation. The permutation is applied
// into the retained sort scratch, which is returned as the sorted records;
// data's backing array becomes the next sort's scratch (ping-pong, no copy
// back). With one worker the passes are plain loops, since the par.For
// closures would allocate on every call.
func (s *Store[T]) sortMemKey(data []T, key func(*T) uint64) []T {
	n := len(data)
	if n == 0 {
		return data
	}
	if cap(s.sortKeys) < n {
		s.sortKeys = make([]uint64, n)
		s.sortIdx = make([]uint32, n)
	}
	keys, idx := s.sortKeys[:n], s.sortIdx[:n]
	if s.workers <= 1 {
		for i := range data {
			keys[i] = key(&data[i])
			idx[i] = uint32(i)
		}
	} else {
		par.For(s.workers, n, func(i int) {
			keys[i] = key(&data[i])
			idx[i] = uint32(i)
		})
	}
	s.sorter.Sort(s.workers, keys, idx)
	buf := s.growBuf(n)
	if s.workers <= 1 {
		for j, i := range idx {
			buf[j] = data[i]
		}
	} else {
		par.For(s.workers, n, func(j int) { buf[j] = data[idx[j]] })
	}
	s.sortBuf = data[:cap(data)]
	return buf
}

// sortMemLess is the resident comparator sort.
func (s *Store[T]) sortMemLess(data []T, less func(a, b *T) bool) {
	par.SortStableBuf(s.workers, data, s.growBuf(len(data)), less)
}

func (s *Store[T]) growBuf(n int) []T {
	if cap(s.sortBuf) < n {
		s.sortBuf = make([]T, n)
	}
	return s.sortBuf[:n]
}

// externalSort rewrites the spilled contents as sorted chunk runs, then
// merges adjacent pairs until one run holds everything. key may be nil for
// pure comparator sorts; less must agree with key when both are given.
func (s *Store[T]) externalSort(key func(*T) uint64, less func(a, b *T) bool) error {
	chunk := make([]T, 0, s.chunkRecs)
	frame := make([]T, s.frameRecs)
	var sorted []*runFile
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if key != nil {
			chunk = s.sortMemKey(chunk, key)
		} else {
			s.sortMemLess(chunk, less)
		}
		s.noteResident(2 * len(chunk)) // chunk + sort scratch
		w, err := s.newRunWriter()
		if err != nil {
			return err
		}
		if err := w.add(chunk); err != nil {
			w.abort()
			return err
		}
		rf, err := w.finish()
		if err != nil {
			return err
		}
		sorted = append(sorted, rf)
		chunk = chunk[:0]
		return nil
	}
	err := s.streamRuns(frame, func(batch []T) error {
		for len(batch) > 0 {
			take := s.chunkRecs - len(chunk)
			if take > len(batch) {
				take = len(batch)
			}
			chunk = append(chunk, batch[:take]...)
			batch = batch[take:]
			if len(chunk) == s.chunkRecs {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	for _, rf := range s.runs {
		os.Remove(rf.path)
	}
	s.runs = sorted

	for len(s.runs) > 1 {
		s.noteMergePass()
		next := make([]*runFile, 0, (len(s.runs)+1)/2)
		for i := 0; i+1 < len(s.runs); i += 2 {
			m, err := s.mergePair(s.runs[i], s.runs[i+1], less)
			if err != nil {
				return err
			}
			next = append(next, m)
		}
		if len(s.runs)%2 == 1 {
			next = append(next, s.runs[len(s.runs)-1])
		}
		s.runs = next
	}
	return nil
}

// mergePair merges two adjacent sorted runs into one, streaming both in
// frames and emitting only records whose final position is already known:
// whichever frame ends on the smaller record is fully mergeable, together
// with the strictly-smaller prefix of the other. The actual interleaving
// is par.MergeSorted, whose ties-take-a rule (a = the earlier run) is what
// carries stability across the merge tree.
func (s *Store[T]) mergePair(a, b *runFile, less func(x, y *T) bool) (*runFile, error) {
	ra, err := s.openRun(a)
	if err != nil {
		return nil, err
	}
	defer ra.close()
	rb, err := s.openRun(b)
	if err != nil {
		return nil, err
	}
	defer rb.close()
	w, err := s.newRunWriter()
	if err != nil {
		return nil, err
	}

	fa := make([]T, s.frameRecs)
	fb := make([]T, s.frameRecs)
	dst := make([]T, 2*s.frameRecs)
	refill := func(r *runReader[T], f []T) ([]T, error) {
		n, err := r.fill(f)
		return f[:n], err
	}
	av, err := refill(ra, fa)
	if err == nil {
		var bv []T
		bv, err = refill(rb, fb)
		for err == nil && len(av) > 0 && len(bv) > 0 {
			la, lb := &av[len(av)-1], &bv[len(bv)-1]
			if !less(lb, la) {
				// All of av is placeable, along with b's strictly-smaller
				// prefix; b records equal to la wait for a's later equals.
				k := sort.Search(len(bv), func(j int) bool { return !less(&bv[j], la) })
				out := dst[:len(av)+k]
				par.MergeSorted(s.workers, out, av, bv[:k], less)
				if err = w.add(out); err != nil {
					break
				}
				bv = bv[k:]
				av, err = refill(ra, fa)
			} else {
				// All of bv is placeable, along with a's prefix up to and
				// including records equal to lb (a wins ties).
				k := sort.Search(len(av), func(i int) bool { return less(lb, &av[i]) })
				out := dst[:k+len(bv)]
				par.MergeSorted(s.workers, out, av[:k], bv, less)
				if err = w.add(out); err != nil {
					break
				}
				av = av[k:]
				bv, err = refill(rb, fb)
			}
		}
		for err == nil && len(av) > 0 {
			if err = w.add(av); err != nil {
				break
			}
			av, err = refill(ra, fa)
		}
		for err == nil && len(bv) > 0 {
			if err = w.add(bv); err != nil {
				break
			}
			bv, err = refill(rb, fb)
		}
	}
	if err != nil {
		w.abort()
		return nil, err
	}
	rf, err := w.finish()
	if err != nil {
		return nil, err
	}
	os.Remove(a.path)
	os.Remove(b.path)
	return rf, nil
}
