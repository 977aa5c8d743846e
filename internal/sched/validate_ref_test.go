package sched

import (
	"fmt"
	"math"
	"slices"

	"treesched/internal/tree"
)

// refValidate is Schedule.Validate as it was before it ran Evaluate's
// checks: the same length, processor, start-time and precedence loop,
// then overlaps found by sorting the tasks by (processor, start,
// duration, id) and comparing neighbours on one processor. It is the
// reference validate_diff_test.go compares accept/reject against.
func refValidate(t *tree.Tree, s *Schedule) error {
	n := t.Len()
	if len(s.Start) != n || len(s.Proc) != n {
		return fmt.Errorf("sched: schedule covers %d/%d starts, %d/%d procs", len(s.Start), n, len(s.Proc), n)
	}
	if s.P < 1 {
		return fmt.Errorf("sched: invalid processor count %d", s.P)
	}
	if s.M != nil && s.M.P() != s.P {
		return fmt.Errorf("sched: machine model has %d processors, schedule says %d", s.M.P(), s.P)
	}
	for i := 0; i < n; i++ {
		if s.Proc[i] < 0 || s.Proc[i] >= s.P {
			return fmt.Errorf("sched: node %d on invalid processor %d", i, s.Proc[i])
		}
		if s.Start[i] < -timeEps || math.IsNaN(s.Start[i]) || math.IsInf(s.Start[i], 0) {
			return fmt.Errorf("sched: node %d has invalid start time %v", i, s.Start[i])
		}
		if p := t.Parent(i); p != tree.None {
			if s.Start[p]+timeEps < s.Start[i]+s.Dur(t, i) {
				return fmt.Errorf("sched: node %d starts at %v before child %d completes at %v",
					p, s.Start[p], i, s.Start[i]+s.Dur(t, i))
			}
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if s.Proc[a] != s.Proc[b] {
			return s.Proc[a] - s.Proc[b]
		}
		if sa, sb := s.Start[a], s.Start[b]; sa != sb {
			if sa < sb {
				return -1
			}
			return 1
		}
		if wa, wb := s.Dur(t, int(a)), s.Dur(t, int(b)); wa != wb {
			if wa < wb {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	for k := 1; k < n; k++ {
		prev, cur := int(idx[k-1]), int(idx[k])
		if s.Proc[prev] != s.Proc[cur] {
			continue
		}
		if s.Start[cur]+timeEps < s.Start[prev]+s.Dur(t, prev) {
			return fmt.Errorf("sched: tasks %d and %d overlap on processor %d", prev, cur, s.Proc[prev])
		}
	}
	return nil
}
