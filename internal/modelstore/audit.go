package modelstore

// The audit log: one JSON object per line, append-only, recording every
// lifecycle transition a model goes through. The log is the store's
// narrative — "who promoted what when, and why was that candidate
// refused" — and the compliance artifact the paper's human-sign-off
// story implies. Nothing in this package rewrites or truncates it;
// sequence numbers are strictly increasing across process restarts
// (Open resumes after the highest intact record).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Audit event types.
const (
	EventPublish  = "publish"  // a candidate entered the store
	EventPromote  = "promote"  // the current pointer moved forward
	EventRollback = "rollback" // the current pointer moved back
	EventRetrain  = "retrain"  // drift triggered a re-optimization
	EventRefuse   = "refuse"   // a candidate failed validation
	EventShadow   = "shadow"   // shadow evaluation started or stopped
	EventGC       = "gc"       // unreferenced blobs were swept
)

// Event is one audit-log record.
type Event struct {
	// Seq is the strictly increasing record number (1-based).
	Seq uint64 `json:"seq"`
	// Time is the record time (unix seconds).
	Time int64 `json:"time"`
	// Event is one of the Event* constants.
	Event string `json:"event"`
	// Model names the model the event concerns.
	Model string `json:"model"`
	// Version is the version the event concerns (0 when not applicable,
	// e.g. a refused candidate that never got a number).
	Version int `json:"version,omitempty"`
	// Detail carries event context: digests, replaced versions, refusal
	// reasons (including cdt.Load's field path), drift statistics.
	Detail string `json:"detail,omitempty"`
}

// Note appends a lifecycle event on behalf of a store client (the
// serving layer audits shadow starts/stops and drift-triggered retrains
// through here). Publish/Promote/Rollback append their own events.
//
// Note takes s.mu for the audit write.
func (s *Store) Note(event, model string, version int, detail string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendAuditLocked(Event{Event: event, Model: model, Version: version, Detail: detail})
}

// Audit returns the audit trail in append order. A limit > 0 returns
// only the most recent limit events.
func (s *Store) Audit(limit int) ([]Event, error) {
	// Serialize against writers so a read never sees a torn final line.
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	if _, err := scanAudit(s.auditPath(), func(e Event) { out = append(out, e) }); err != nil {
		return nil, err
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out, nil
}

// appendAuditLocked stamps and appends one event to the log. Callers
// must hold s.mu (it assigns the next sequence number).
func (s *Store) appendAuditLocked(e Event) error {
	e.Seq = s.seq + 1
	e.Time = time.Now().Unix()
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("modelstore: encoding audit event: %w", err)
	}
	f, err := os.OpenFile(s.auditPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("modelstore: appending audit log: %w", err)
	}
	s.seq = e.Seq
	return nil
}

// scanAudit calls fn on every record of the audit log at path, in
// append order, skipping any line that does not parse: a record torn by
// a crash mid-append. torn reports whether the log ends without a
// newline. A missing log has no records.
func scanAudit(path string, fn func(Event)) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("modelstore: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		var e Event
		if json.Unmarshal(line, &e) == nil {
			fn(e)
		}
		if err == io.EOF {
			return len(line) > 0, nil
		}
		if err != nil {
			return false, fmt.Errorf("modelstore: %w", err)
		}
	}
}

// resumeAudit returns the audit log's last sequence number, so a
// reopened store keeps the sequence strictly increasing. When a crash
// left the final record without its newline, resumeAudit ends that line
// so the next record starts its own instead of extending the torn one.
func resumeAudit(path string) (uint64, error) {
	var last uint64
	torn, err := scanAudit(path, func(e Event) { last = max(last, e.Seq) })
	if err != nil {
		return 0, err
	}
	if !torn {
		return last, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, fmt.Errorf("modelstore: %w", err)
	}
	_, err = f.Write([]byte{'\n'})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("modelstore: ending torn audit record: %w", err)
	}
	return last, nil
}
