package campaign

// EventSink receives the campaign lifecycle event stream — the same
// create/observe/finish facts the WAL logs, plus quotes (which are
// deliberately never logged) — so an analytics plane can fold live
// traffic without coupling this package to it. internal/analytics
// implements it.
//
// Sink methods are called with scalar arguments only, synchronously from
// the mutation paths (sometimes under a per-campaign mutex) and from the
// pass that reads a WAL, so an implementation must be fast, must not
// block, and must treat its own locks as leaves — it may never call back
// into the Manager.
type EventSink interface {
	// CampaignCreated fires once per successful Create (and once per
	// campaign a WAL records, when ReplayWAL or FoldWAL reads it).
	CampaignCreated(kind string, adaptive bool)
	// CampaignObserved fires per applied observe: the interval's arrivals,
	// the summed completions (saturated at math.MaxInt), and the
	// zero-based index of the interval just observed.
	CampaignObserved(kind string, adaptive bool, arrivals float64, completed int, interval int)
	// CampaignQuoted fires per served quote with the headline price.
	CampaignQuoted(kind string, adaptive bool, price int)
	// CampaignFinished fires when a campaign is explicitly finished;
	// CampaignExpired when the TTL sweeper removes it.
	CampaignFinished(kind string, adaptive bool)
	CampaignExpired(kind string, adaptive bool)
}

// sinkHolder wraps the interface so the attach point can be an
// atomic.Pointer — the quote hot path reads it lock-free.
type sinkHolder struct{ sink EventSink }

// AttachSink starts streaming lifecycle events to s. Attach before
// ReplayWAL, so s also receives the log's recorded history, and before
// serving mutations; a nil s detaches.
func (m *Manager) AttachSink(s EventSink) {
	if s == nil {
		m.sink.Store(nil)
		return
	}
	m.sink.Store(&sinkHolder{sink: s})
}

// eventSink returns the attached sink, or nil.
func (m *Manager) eventSink() EventSink {
	if h := m.sink.Load(); h != nil {
		return h.sink
	}
	return nil
}
