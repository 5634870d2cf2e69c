package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/cpstate"
	"ursa/internal/journal"
	"ursa/internal/localrt"
	"ursa/internal/remote/shuffle"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// Standby is a warm spare master: it binds its control-plane address up
// front (so workers and clients can list it ahead of time) and watches the
// primary's lease in the shared journal directory. Takeover blocks until
// the lease expires, replays the journal (newest snapshot + event tail) to
// the byte-identical control-plane state, and promotes this process to a
// Master of the next generation — the backlog resubmitted under its
// original wire IDs, committed outputs pulled back into the canonical
// store, and re-attaching workers accepted into their old registry slots.
type Standby struct {
	cfg Config
	ln  net.Listener

	// m is the promoted master; once set, the accept loop (which this
	// standby owns for the listener's whole life) delegates inbound
	// connections to it.
	m atomic.Pointer[Master]

	closeOnce sync.Once
}

// NewStandby binds the standby's control-plane listener and starts watching
// for connections (refused until promotion). The journal directory must be
// the one the primary writes.
func NewStandby(cfg Config) (*Standby, error) {
	cfg = cfg.withDefaults()
	if cfg.JournalDir == "" {
		return nil, errors.New("remote: standby requires Config.JournalDir")
	}
	ln, err := cfg.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("remote: standby listen %s: %w", cfg.Addr, err)
	}
	s := &Standby{cfg: cfg, ln: ln}
	go s.accept()
	return s, nil
}

// Addr is the control-plane address the standby answers on — what workers
// list after the primary's address.
func (s *Standby) Addr() string { return s.ln.Addr().String() }

// accept owns the listener for its whole life: connections arriving before
// promotion are refused (the peer retries with backoff), and after
// promotion they are handed to the master's handshake. The promoted master
// adopts the listener, so its Close ends this loop.
func (s *Standby) accept() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		if m := s.m.Load(); m != nil {
			go m.handshake(nc)
		} else {
			nc.Close()
		}
	}
}

// Close releases the standby's listener if it was never promoted; after a
// successful Takeover the master owns the listener and Close is a no-op.
func (s *Standby) Close() {
	s.closeOnce.Do(func() {
		if s.m.Load() == nil {
			s.ln.Close()
		}
	})
}

// Takeover blocks until the primary's lease expires (or ctx ends), then
// replays the journal and promotes this standby. On success the returned
// Master is ready for the usual WaitWorkers/Run sequence: workers
// re-attaching under the new generation fill the replayed registry's live
// slots, and Run re-drives the inherited backlog — tasks whose commits
// survived in the journal complete from the checkpoint without
// re-executing.
func (s *Standby) Takeover(ctx context.Context) (*Master, error) {
	if err := s.awaitLeaseExpiry(ctx); err != nil {
		return nil, err
	}
	jnl, rep, err := journal.Open(s.cfg.JournalDir, journal.Options{SyncInterval: journalSyncInterval})
	if err != nil {
		return nil, fmt.Errorf("remote: takeover: %w", err)
	}
	st, err := cpstate.Replay(rep.Snapshot, rep.Events)
	if err != nil {
		jnl.Close()
		return nil, fmt.Errorf("remote: takeover replay: %w", err)
	}
	replayBytes := len(rep.Snapshot)
	for _, evb := range rep.Events {
		replayBytes += len(evb)
	}
	m, err := newMaster(s.cfg, &takeoverState{st: st, jnl: jnl, ln: s.ln})
	if err != nil {
		jnl.Close()
		return nil, err
	}
	m.Journal.ObserveReplay(len(rep.Events), replayBytes)
	m.logf("master: takeover at gen %d: replayed %d events (%d B), %d jobs, %d commits",
		m.gen, len(rep.Events), replayBytes, len(st.Order), len(st.Commits))
	if err := m.recoverFromState(st); err != nil {
		m.Close()
		return nil, err
	}
	// Promote: from here the accept loop routes workers and clients to the
	// master. Registration is open only now, after the replayed backlog and
	// registry are fully rebuilt.
	s.m.Store(m)
	return m, nil
}

// awaitLeaseExpiry polls the lease file until it exists and has expired.
// A missing lease means the primary has not started yet — keep waiting; an
// expired one means it stopped renewing: dead (or partitioned from the
// journal directory, in which case it can no longer persist events either).
func (s *Standby) awaitLeaseExpiry(ctx context.Context) error {
	poll := s.cfg.LeaseTTL / 4
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		l, err := journal.ReadLease(s.cfg.JournalDir)
		switch {
		case err == nil && l.Expired(time.Now()):
			return nil
		case err != nil && !errors.Is(err, journal.ErrNoLease):
			return fmt.Errorf("remote: reading lease: %w", err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("remote: waiting for lease expiry: %w", ctx.Err())
		case <-time.After(poll):
		}
	}
}

// contribKey names one producer's contribution to one partition — the unit
// of the takeover state transfer.
type contribKey struct {
	job  int64
	ds   int32
	part int32
	mt   int32
}

// recoverFromState rebuilds what the replayed control-plane state does not
// hold, before any worker re-attaches (single-goroutine: the control loop is
// not running yet, and st is the state the recorder now folds into):
// resubmit the non-terminal backlog under its original wire IDs, pull
// committed outputs from the surviving workers' shuffle servers back into
// the canonical store, and mark the tasks whose commits came back whole so
// they complete without running again. Origins and the worker registry are
// read where they are. The resubmitted rows enter the job table only once
// the loop runs, so the transfer writes to the runtimes the resubmission
// returned.
func (m *Master) recoverFromState(st *cpstate.State) error {
	for i, w := range st.Workers {
		switch {
		case w.Failed:
			// Failed in the scheduler up front, so placement never targets the
			// slot. No in-flight work exists yet, so this only marks capacity.
			m.Sys.Core.FailWorker(i)
		case w.Draining || w.Drained:
			// Workers the old generation was draining (or had drained) stay
			// out of the new one: their agents lost the control connection and
			// were being decommissioned anyway. BeginDrain excludes them from
			// placement and admission capacity; an interrupted drain, with
			// nothing in flight any more, completes here.
			m.Sys.Core.BeginDrain(i)
			if !w.Drained {
				m.recordDrained(i)
			}
		}
	}

	rts := make(map[int64]*localrt.Runtime)
	for _, id := range st.Order {
		js := st.Jobs[id]
		if js.Phase.Terminal() {
			continue
		}
		// Same deterministic builder contract as the wire protocol: (name,
		// params) reproduces the exact plan, so dataset and monotask IDs in
		// the replayed commits and origins stay meaningful.
		bj, err := workload.Describe(js.Workload, js.Params)
		if err != nil {
			return fmt.Errorf("remote: takeover rebuild job %d (%s): %w", id, js.Workload, err)
		}
		bj.Spec.Tenant = js.Tenant
		// The submission is already in the replayed state, so no JobSubmitted
		// event is recorded here.
		rj := m.newRow(js.Workload, bj)
		rj.id = id
		rts[id] = m.hold(rj).Runtime()
	}

	// State transfer: the dead master's canonical store died with it, so
	// every committed contribution is pulled back from the surviving
	// origins' shuffle servers (which outlive the control connection). A
	// partition whose only origins died is simply not recovered — its
	// producing commits fail the completeness check below and re-execute.
	have := make(map[contribKey]bool)
	clients := make(map[string]*shuffle.Client)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	client := func(addr string) *shuffle.Client {
		c := clients[addr]
		if c == nil {
			c = shuffle.NewClient(addr, shuffle.ClientConfig{})
			clients[addr] = c
		}
		return c
	}
	for pk, origins := range st.Origins {
		rt := rts[pk.Job]
		if rt == nil {
			continue // terminal job: its commits were compacted, nothing needs it
		}
		ds := rt.DatasetByID(int(pk.DS))
		if ds == nil {
			return fmt.Errorf("remote: takeover job %d has no dataset %d", pk.Job, pk.DS)
		}
		for _, o := range origins {
			// Drained workers' processes have exited; a still-draining one may
			// yet serve its shuffle port, so it stays worth trying.
			if int(o) >= len(st.Workers) || !st.Workers[o].ServesPeers() {
				continue
			}
			pk := pk
			sink := func(resp *wire.FetchResp) error {
				for i := range resp.Contribs {
					pc := &resp.Contribs[i]
					// InsertEncoded is idempotent per (part, producer), so
					// overlapping fetches from multiple holders dedup here.
					rt.InsertEncoded(ds, int(pk.Part), int(pc.MTID),
						append([]byte(nil), pc.Rows...), pc.Flags, int(pc.RawLen))
					have[contribKey{pk.Job, pk.DS, pk.Part, pc.MTID}] = true
				}
				return nil
			}
			if _, _, _, err := client(st.Workers[o].ShuffleAddr).FetchFunc(pk.Job, pk.DS, pk.Part, o, sink); err != nil {
				// Best-effort: a worker that died alongside the primary just
				// leaves its contributions unrecovered (re-executed below).
				m.logf("master: takeover transfer job %d ds %d part %d from worker %d: %v",
					pk.Job, pk.DS, pk.Part, o, err)
			}
		}
	}

	// A committed task whose commit names each of its monotasks, and all of
	// whose writes made it back into the canonical store, is final: when the
	// scheduler re-places it, StartTask completes it from the checkpoint
	// instead of dispatching it. Anything less re-runs the task whole. A
	// task's writes all have one origin, the agent that ran it, so a task
	// comes back whole or not at all.
	for key, mts := range st.Commits {
		rt := rts[key.Job]
		if rt == nil || key.Task < 0 || int(key.Task) >= len(rt.Plan().Tasks) {
			continue
		}
		complete := len(mts) == len(rt.Plan().Tasks[key.Task].Monotasks)
		for _, c := range mts {
			for _, wr := range c.Writes {
				complete = complete && have[contribKey{key.Job, wr.DS, wr.Part, c.MTID}]
			}
		}
		if complete {
			m.exec.recovered[key] = true
		}
	}
	m.logf("master: takeover recovered %d/%d committed tasks", len(m.exec.recovered), len(st.Commits))
	return nil
}
