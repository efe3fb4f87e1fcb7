package main

import "fmt"

// phaseSeq checks one participant's successful Await phases: each must
// follow the previous one mod nPhases, with no phase skipped or repeated.
type phaseSeq struct {
	nPhases int
	count   int64 // successful Awaits observed
	first   int
	last    int
	bad     int64  // phases out of sequence
	badMsg  string // the first violation
}

// observe records the phase of the next successful Await and reports
// whether it was in sequence.
func (s *phaseSeq) observe(ph int) bool {
	ok := true
	if s.count == 0 {
		s.first = ph
	} else if want := (s.last + 1) % s.nPhases; ph != want {
		ok = false
		if s.bad == 0 {
			s.badMsg = fmt.Sprintf("pass %d returned phase %d, want %d", s.count+1, ph, want)
		}
		s.bad++
	}
	s.last = ph
	s.count++
	return ok
}

// agree checks that every participant of one group saw the same phase
// sequence: each is internally consecutive (observe), so equal first
// phases and equal pass counts mean the k-th phases agree for every k.
func agree(seqs []*phaseSeq) error {
	for i, s := range seqs {
		if s.bad > 0 {
			return fmt.Errorf("participant %d: %d phases out of sequence; first: %s", i, s.bad, s.badMsg)
		}
		if s.count != seqs[0].count || (s.count > 0 && s.first != seqs[0].first) {
			return fmt.Errorf("participant %d passed %d times from phase %d, participant 0 %d times from phase %d",
				i, s.count, s.first, seqs[0].count, seqs[0].first)
		}
	}
	return nil
}

// passSpan is one barrier pass as the participants saw it: the instants
// (ns) at which its earliest and its latest participant returned.
type passSpan struct {
	first, last int64
}

// recoveries returns, for each fault instant, the time until the first
// pass that every participant completed after the fault: the first pass
// whose earliest completion follows the fault, measured to its latest
// completion (the live Fig 7 quantity). faults and passes are in time
// order; faults that no logged pass follows are counted as unresolved.
func recoveries(faults []int64, passes []passSpan) (out []int64, unresolved int) {
	k := 0
	for _, f := range faults {
		for k < len(passes) && passes[k].first <= f {
			k++
		}
		if k == len(passes) {
			unresolved++
			continue
		}
		out = append(out, passes[k].last-f)
	}
	return out, unresolved
}
