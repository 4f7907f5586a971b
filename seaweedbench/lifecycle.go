package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/qserve"
	"repro/internal/relq"
)

// lifecycle is an obs sink that keeps only the query-service lifecycle
// events: it is how the benchmark sees each serve query's arrival,
// admission and result stream through the public obs tracer, since
// qserve keeps its per-query records private. It is attached only to
// serve's check and traced passes, never to a timed pass.
type lifecycle struct {
	events []obs.Event
	// onArrival, when set, is called for each queued or shed event (the
	// traced run records a span per arrival).
	onArrival func(obs.Event)
}

func (l *lifecycle) Record(ev obs.Event) {
	switch ev.Kind {
	case obs.KindQueued, obs.KindShed:
		if l.onArrival != nil {
			l.onArrival(ev)
		}
	case obs.KindStarted, obs.KindInject, obs.KindPredict, obs.KindPartial, obs.KindCancel:
	default:
		return
	}
	l.events = append(l.events, ev)
}

// serveQuery is one service arrival reassembled from the lifecycle.
type serveQuery struct {
	arrival  time.Duration
	shed     bool
	started  bool
	startAt  time.Duration
	qid      string
	expected float64
	ups      []update
	closed   bool // cancelled at the injector: later partials are not delivered
}

// serveOutcomes reassembles every arrival of the run and returns the
// interactive class's outcomes. It checks the service's tallies and every
// result update against the oracle.
func (l *lifecycle) serveOutcomes(s *sim, arrivals []qserve.Arrival, checks *[]string) []queryOutcome {
	qs := l.serveQueries(len(arrivals), checks)
	truth := make(map[string]int64)
	var out []queryOutcome
	var shed, started, censored int
	for seq, q := range qs {
		if q == nil {
			*checks = append(*checks, fmt.Sprintf("serve: arrival %d never reached the service", seq))
			continue
		}
		a := arrivals[seq]
		if q.arrival != a.At {
			*checks = append(*checks, fmt.Sprintf("serve: arrival %d at %v, planned %v", seq, q.arrival, a.At))
		}
		switch {
		case q.shed:
			shed++
		case q.started:
			started++
		default:
			censored++
		}
		if q.started {
			if _, ok := truth[a.Tmpl.SQL]; !ok {
				truth[a.Tmpl.SQL] = s.c.TrueRelevantRows(relq.MustParse(a.Tmpl.SQL))
			}
			checkUpdates(q.ups, truth[a.Tmpl.SQL], s.n, "serve "+a.Tmpl.Name, checks)
		}
		if a.Tmpl.Class == qserve.Interactive {
			out = append(out, outcomeOf(q.arrival, s.end, q.ups, q.expected, q.started))
		}
	}
	if arrived := len(qs); arrived != shed+started+censored {
		*checks = append(*checks, fmt.Sprintf("serve: arrived %d != shed %d + started %d + censored %d",
			arrived, shed, started, censored))
	}
	return out
}

// serveQueries indexes the lifecycle by arrival sequence number.
func (l *lifecycle) serveQueries(n int, checks *[]string) []*serveQuery {
	qs := make([]*serveQuery, n)
	bySpan := make(map[uint64]*serveQuery) // started span -> query
	byQID := make(map[string]*serveQuery)
	get := func(seq int64) *serveQuery {
		if seq < 0 || int(seq) >= n {
			*checks = append(*checks, fmt.Sprintf("serve: sequence number %d outside the %d planned arrivals", seq, n))
			return nil
		}
		return qs[seq]
	}
	for _, ev := range l.events {
		switch ev.Kind {
		case obs.KindQueued, obs.KindShed:
			if ev.N < 0 || int(ev.N) >= n {
				*checks = append(*checks, fmt.Sprintf("serve: sequence number %d outside the %d planned arrivals", ev.N, n))
				continue
			}
			qs[ev.N] = &serveQuery{arrival: ev.T, shed: ev.Kind == obs.KindShed}
		case obs.KindStarted:
			if q := get(ev.N); q != nil {
				q.started, q.startAt = true, ev.T
				bySpan[ev.Span] = q
			}
		case obs.KindInject:
			if q, ok := bySpan[ev.Parent]; ok {
				q.qid = ev.Query
				byQID[ev.Query] = q
			}
		case obs.KindPredict:
			if q, ok := byQID[ev.Query]; ok {
				q.expected = ev.V
			}
		case obs.KindPartial:
			if q, ok := byQID[ev.Query]; ok && !q.closed {
				q.ups = append(q.ups, update{at: ev.T, rows: int64(ev.V), contributors: ev.N})
			}
		case obs.KindCancel:
			if q, ok := byQID[ev.Query]; ok {
				q.closed = true
			}
		}
	}
	return qs
}

// servePerLayer derives the qserve layer's metrics from the lifecycle:
// interactive queue waits, sheds, and the peak number of open queries
// (admitted and not yet retired).
func (l *lifecycle) servePerLayer(arrivals []qserve.Arrival) (waits []float64, shed, peakOpen int) {
	var checks []string
	qs := l.serveQueries(len(arrivals), &checks)
	open := 0
	serviced := make(map[string]bool) // query ids the service started
	for _, q := range qs {
		if q != nil && q.qid != "" {
			serviced[q.qid] = true
		}
	}
	for _, ev := range l.events {
		switch ev.Kind {
		case obs.KindQueued:
			open++
			if open > peakOpen {
				peakOpen = open
			}
		case obs.KindShed:
			shed++
		case obs.KindCancel:
			if serviced[ev.Query] {
				open--
			}
		}
	}
	for seq, q := range qs {
		if q != nil && q.started && arrivals[seq].Tmpl.Class == qserve.Interactive {
			waits = append(waits, (q.startAt - q.arrival).Seconds())
		}
	}
	return waits, shed, peakOpen
}
