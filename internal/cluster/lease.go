package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dlrmperf/internal/serve"
)

// Coordinator replication. A coordinator configured with a static peer
// list (Config.Self + Config.Peers) joins a replication group built on
// a leader lease that follows the worker registry's pattern exactly:
// an injectable clock and a liveness window, no consensus protocol.
//
// Leadership is deterministic: every coordinator ranks the candidate
// set — itself plus every peer seen alive within the lease window — and
// the lowest URL holds the lease. Proof of life is passive and active
// at once: a successful probe (StartPeerProbes), an inbound gossip
// message, and a successful outbound gossip delivery all refresh a
// peer's lease entry. When the leader stops answering, its entry ages
// out of every follower's window and the next-lowest live coordinator
// is — by the shared rule, without an election round trip — the new
// leader.
//
// Writes and reads split the classic way: reads (routing, stats,
// cache lookups) are answered locally on every coordinator, while
// writes flow toward the leader. A worker registration landing on a
// follower is applied locally (its own routing table must not lag its
// own observations) and forwarded to the leader, which gossips it to
// every peer — so wherever a worker registers, the whole group routes
// to it within one beat. Because the leader is always the lowest live
// URL, forwarding chains strictly descend and can never cycle.
//
// Replicated state rides three apply-only peer endpoints (they never
// re-forward, so gossip cannot loop):
//
//	POST /v1/peers/register  worker registration         -> Registry.Register
//	POST /v1/peers/result    fetched result row          -> ResultCache.InstallRemoteResult
//	POST /v1/peers/assets    worker asset export (vault) -> assetVault.put
//
// Result rows replicate from whichever coordinator fetched them
// (commutative, idempotent — no leader needed), which is what makes a
// repeat of any fingerprint a local cache hit on every coordinator:
// killing the leader mid-run loses no cached results.

// Lease is the coordinator group's leader lease: the static peer set
// with last-proof-of-life stamps. Like the worker registry, the clock
// is injectable so expiry tests advance time instead of sleeping, and
// liveness is recomputed on read — there is no background state to
// tend.
type Lease struct {
	self string
	ttl  time.Duration
	// now is the clock, injectable for deterministic expiry tests.
	now func() time.Time

	mu    sync.Mutex
	peers map[string]time.Time // peer URL -> last proof of life (zero: never seen)
}

// NewLease returns a lease over the static peer set. self is this
// coordinator's own advertised URL; it is excluded from peers if
// listed there. ttl <= 0 selects DefaultLiveness.
func NewLease(self string, peers []string, ttl time.Duration) *Lease {
	if ttl <= 0 {
		ttl = DefaultLiveness
	}
	self = strings.TrimRight(strings.TrimSpace(self), "/")
	l := &Lease{self: self, ttl: ttl, now: time.Now, peers: map[string]time.Time{}}
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" && p != self {
			l.peers[p] = time.Time{}
		}
	}
	return l
}

// Self reports this coordinator's own URL.
func (l *Lease) Self() string { return l.self }

// TTL reports the lease liveness window.
func (l *Lease) TTL() time.Duration { return l.ttl }

// Peers lists the configured peer URLs, sorted.
func (l *Lease) Peers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.peers))
	for p := range l.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// MarkSeen records proof of life for a peer (successful probe, inbound
// gossip, or a delivered outbound gossip). Unknown URLs are ignored —
// the peer set is static by design.
func (l *Lease) MarkSeen(peer string) {
	peer = strings.TrimRight(peer, "/")
	l.mu.Lock()
	if _, ok := l.peers[peer]; ok {
		l.peers[peer] = l.now()
	}
	l.mu.Unlock()
}

// Leader returns the lease holder: the lowest URL among this
// coordinator and every peer seen within the window. With no live
// peers (or no peers at all) that is self — a group of one leads
// itself.
func (l *Lease) Leader() string {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	leader := l.self
	for p, seen := range l.peers {
		if !seen.IsZero() && now.Sub(seen) <= l.ttl && p < leader {
			leader = p
		}
	}
	return leader
}

// IsLeader reports whether this coordinator currently holds the lease.
func (l *Lease) IsLeader() bool { return l.Leader() == l.self }

// PeerStatus is one peer's row in the lease snapshot.
type PeerStatus struct {
	URL  string `json:"url"`
	Live bool   `json:"live"`
	// LastSeenAgeMs is the age of the newest proof of life (-1: never).
	LastSeenAgeMs int64 `json:"last_seen_age_ms"`
}

// LeaseStatus is the lease block of the coordinator /stats document.
type LeaseStatus struct {
	Self     string       `json:"self"`
	Leader   string       `json:"leader"`
	IsLeader bool         `json:"is_leader"`
	TTLMs    int64        `json:"ttl_ms"`
	Peers    []PeerStatus `json:"peers,omitempty"`
}

// Snapshot assembles the lease's observable state, peers sorted. Safe
// on a nil lease (single-coordinator mode), where it reports nothing.
func (l *Lease) Snapshot() *LeaseStatus {
	if l == nil {
		return nil
	}
	leader := l.Leader()
	now := l.now()
	st := &LeaseStatus{Self: l.self, Leader: leader, IsLeader: leader == l.self, TTLMs: l.ttl.Milliseconds()}
	for _, p := range l.Peers() {
		l.mu.Lock()
		seen := l.peers[p]
		l.mu.Unlock()
		ps := PeerStatus{URL: p, LastSeenAgeMs: -1}
		if !seen.IsZero() {
			ps.Live = now.Sub(seen) <= l.ttl
			ps.LastSeenAgeMs = now.Sub(seen).Milliseconds()
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}

// peerRegistration, peerResult, and peerAssets are the replication
// wire bodies. From names the origin coordinator: a gossip receipt
// doubles as its proof of life.
type peerRegistration struct {
	From string       `json:"from"`
	Reg  Registration `json:"registration"`
}

type peerResult struct {
	From    string        `json:"from"`
	Request serve.Request `json:"request"`
	Row     serve.Result  `json:"row"`
}

type peerAssets struct {
	From string    `json:"from"`
	Push AssetPush `json:"push"`
}

// gossip fans body out to every peer, asynchronously and best-effort:
// replication is an optimization over re-fetching (results), the next
// heartbeat (registrations), or the next push (assets), so a lost
// message heals itself. A delivered message marks the peer alive.
func (c *Coordinator) gossip(path string, body any) {
	if c.lease == nil {
		return
	}
	for _, peer := range c.lease.Peers() {
		c.repl.Add(1)
		go func(peer string) {
			defer c.repl.Done()
			//lint:allow ctxflow deliberately detached: replication must outlive the originating request, bounded by StatsTimeout
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.StatsTimeout)
			defer cancel()
			if err := c.workerClient(peer).PostJSON(ctx, path, body, nil); err == nil {
				c.lease.MarkSeen(peer)
			}
		}(peer)
	}
}

// shareRegistration propagates a client-facing registration through
// the group: the leader gossips it to every peer; a follower forwards
// it to the leader (the write path), which applies and gossips it.
// Forwarding targets are always strictly lower URLs, so chains descend
// and terminate at the group minimum.
func (c *Coordinator) shareRegistration(reg Registration) {
	if c.lease == nil {
		return
	}
	if c.lease.IsLeader() {
		c.gossip("/v1/peers/register", peerRegistration{From: c.lease.Self(), Reg: reg})
		return
	}
	leader := c.lease.Leader()
	c.repl.Add(1)
	go func() {
		defer c.repl.Done()
		//lint:allow ctxflow deliberately detached: the forwarded write must outlive the worker's heartbeat request, bounded by StatsTimeout
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.StatsTimeout)
		defer cancel()
		if err := c.workerClient(leader).Register(ctx, reg.ID, reg.URL); err == nil {
			c.lease.MarkSeen(leader)
		}
	}()
}

// replicateResult shares a freshly fetched result row with every peer
// by scenario fingerprint, so a repeat hitting ANY coordinator is a
// local cache hit.
func (c *Coordinator) replicateResult(req serve.Request, row serve.Result) {
	if c.lease == nil || c.cfg.Cache == nil {
		return
	}
	c.gossip("/v1/peers/result", peerResult{From: c.lease.Self(), Request: req, Row: row})
}

// handlePeerRegister applies a replicated worker registration.
// Apply-only: peer endpoints never re-forward, so gossip cannot loop.
func (c *Coordinator) handlePeerRegister(w http.ResponseWriter, r *http.Request) {
	var p peerRegistration
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)).Decode(&p); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.HTTPError{Code: "bad_request", Message: err.Error()})
		return
	}
	if p.Reg.URL == "" {
		serve.WriteJSON(w, http.StatusBadRequest, serve.HTTPError{Code: "bad_request", Message: "registration url is required"})
		return
	}
	c.lease.MarkSeen(p.From)
	if p.Reg.ID == "" {
		p.Reg.ID = p.Reg.URL
	}
	c.reg.Register(p.Reg.ID, p.Reg.URL)
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "applied"})
}

// handlePeerResult installs a replicated result row into the local
// pass-through cache under its scenario fingerprint.
func (c *Coordinator) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	var p peerResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)).Decode(&p); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.HTTPError{Code: "bad_request", Message: err.Error()})
		return
	}
	c.lease.MarkSeen(p.From)
	if c.cfg.Cache != nil && p.Row.Error == "" {
		c.cfg.Cache.InstallRemoteResult(p.Request.ToPredict(), p.Row)
		c.peerResultsInstalled.Add(1)
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "applied"})
}

// handlePeerAssets applies a replicated worker asset export to the
// local vault.
func (c *Coordinator) handlePeerAssets(w http.ResponseWriter, r *http.Request) {
	var p peerAssets
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)).Decode(&p); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.HTTPError{Code: "bad_request", Message: err.Error()})
		return
	}
	c.lease.MarkSeen(p.From)
	if p.Push.Device != "" && len(p.Push.Assets) > 0 {
		c.vault.put(p.Push.Device, p.Push.ID, p.Push.Epoch, p.Push.Assets)
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "applied"})
}

// StartPeerProbes actively probes every peer's GET /healthz every
// interval (default 2s), refreshing the lease on success, until the
// returned stop function is called or ctx is canceled. Probing is the
// liveness floor — an idle group with no gossip still converges on a
// leader — and the heal path: a restarted peer is seen within one
// probe interval.
func (c *Coordinator) StartPeerProbes(ctx context.Context, interval time.Duration) (stop func()) {
	if c.lease == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	probe := func() {
		for _, peer := range c.lease.Peers() {
			pctx, cancel := context.WithTimeout(ctx, c.cfg.StatsTimeout)
			h, err := c.workerClient(peer).Healthz(pctx)
			cancel()
			// A draining peer answers but is leaving the group: it must
			// not be (re-)elected leader, so only "ok" refreshes its lease.
			if err == nil && h.Status == "ok" {
				c.lease.MarkSeen(peer)
			}
		}
	}
	go func() {
		defer close(exited)
		probe()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				probe()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Lease returns the coordinator's leader lease (nil outside a
// replication group).
func (c *Coordinator) Lease() *Lease { return c.lease }
