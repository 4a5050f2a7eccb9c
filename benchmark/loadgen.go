package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ovm/internal/dynamic"
)

// The load generator: one goroutine per connection, at most two of each.
// Latency is client-side monotonic time around one request. A response
// that is not a 200, or whose answer is wrong, counts as failed and
// contributes no latency sample.

// conn is one generator stream: its own single-connection client plus the
// request accounting every stream shares.
type conn struct {
	client    *http.Client
	base      string
	buf       bytes.Buffer
	attempted int // every request sent
	updates   int // those of attempted that were POST /updates
	failed    int
	firstErr  error
}

func newConn(base string) *conn { return &conn{client: newClient(), base: base} }

func (c *conn) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// post sends one request and returns the response body, valid until the
// next post on this conn. Every call counts as attempted; a transport
// error or a non-200 status counts as failed and returns nil.
func (c *conn) post(path string, body []byte) []byte {
	c.attempted++
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.fail(err)
		return nil
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		c.fail(err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		c.fail(fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(c.buf.Bytes())))
		return nil
	}
	return c.buf.Bytes()
}

// A query response ends ...,"cached":<bool>,"elapsedMs":<n>}: everything
// before "cached" is the answer and depends only on the key and the epoch.
var cachedMark = []byte(`,"cached":`)

func splitAnswer(body []byte) (answer []byte, cached bool, ok bool) {
	i := bytes.LastIndex(body, cachedMark)
	if i < 0 {
		return nil, false, false
	}
	rest := body[i+len(cachedMark):]
	return body[:i], bytes.HasPrefix(rest, []byte("true")), true
}

// answerEpoch reads the "epoch" field of an answer prefix.
func answerEpoch(answer []byte) int64 {
	mark := []byte(`"epoch":`)
	i := bytes.LastIndex(answer, mark)
	if i < 0 {
		return -1
	}
	j := i + len(mark)
	k := j
	for k < len(answer) && answer[k] >= '0' && answer[k] <= '9' {
		k++
	}
	e, err := strconv.ParseInt(string(answer[j:k]), 10, 64)
	if err != nil {
		return -1
	}
	return e
}

// expect says what a reader may see in the "cached" field.
type expect int

const (
	anyCached expect = iota // churn: hits and misses both occur
	allMisses               // cold streams: every request computes
	allHits                 // warm mix after warm-up
)

// reader is a closed-loop query stream over a key list.
type reader struct {
	*conn
	keys   []request
	next   int
	expect expect
	// answers holds the latest answer prefix seen per key; a repeat of a
	// key must return the same bytes unless the epoch moved.
	answers  [][]byte
	lat      []time.Duration
	latKey   []int     // index into keys of each timed request
	lastDone time.Time // when the last timed response arrived
}

func newReader(base string, keys []request, e expect) *reader {
	return &reader{conn: newConn(base), keys: keys, expect: e, answers: make([][]byte, len(keys))}
}

// one sends the next key and checks the response. timed says whether the
// latency is recorded (the warm-up sends untimed requests).
func (r *reader) one(timed bool) {
	i := r.next % len(r.keys)
	r.next++
	k := r.keys[i]
	start := time.Now()
	body := r.post(k.Path, k.Body)
	dur := time.Since(start)
	if body == nil {
		return
	}
	answer, cached, ok := splitAnswer(body)
	switch {
	case !ok:
		r.fail(fmt.Errorf("%s: response has no cached field: %s", k.Path, body))
		return
	case r.expect == allMisses && (cached || !bytes.Contains(answer, []byte(`"fromIndex":true`))):
		r.fail(fmt.Errorf("%s: want cached:false fromIndex:true, got %s", k.Path, body))
		return
	case r.expect == allHits && !cached:
		r.fail(fmt.Errorf("%s: want a cache hit, got %s", k.Path, body))
		return
	}
	if prev := r.answers[i]; prev != nil && !bytes.Equal(prev, answer) && answerEpoch(prev) == answerEpoch(answer) {
		r.fail(fmt.Errorf("%s: repeat of a key differs at one epoch:\n  %s\n  %s", k.Path, prev, answer))
		return
	}
	r.answers[i] = append(r.answers[i][:0], answer...)
	if timed {
		r.lat = append(r.lat, dur)
		r.latKey = append(r.latKey, i)
		r.lastDone = start.Add(dur)
	}
}

// run sends keys back to back until the deadline; with onePass it also
// stops once every key has been sent.
func (r *reader) run(until time.Time, onePass, timed bool) {
	for time.Now().Before(until) {
		if onePass && r.next >= len(r.keys) {
			return
		}
		r.one(timed)
	}
}

// writer is an update stream plus the lag samples its probes took.
type writer struct {
	*conn
	gen  *batchGen
	path string

	sent       []dynamic.Batch // accepted batches, in epoch order
	accept     []time.Duration
	lag        []time.Duration
	late       []time.Duration // open loop: how late each batch was fired
	lastEpoch  int64
	firstTimed time.Time // when the current timed stretch began
	lastSeen   time.Time // when the last batch was observed visible
}

func newWriter(base string, gen *batchGen) *writer {
	return &writer{conn: newConn(base), gen: gen, path: "/v1/datasets/" + servedDataset + "/updates"}
}

// send posts the next batch and returns its promised epoch (0 on failure).
// from is the instant the accept latency is measured from.
func (w *writer) send(from time.Time) (epoch int64, acceptedAt time.Time) {
	b := w.gen.Next()
	w.updates++
	body := w.post(w.path, updateBody(b))
	acceptedAt = time.Now()
	if body == nil {
		return 0, acceptedAt
	}
	epoch = answerEpoch(body)
	if epoch != w.lastEpoch+1 && w.lastEpoch != 0 {
		w.fail(fmt.Errorf("update promised epoch %d after %d", epoch, w.lastEpoch))
		return 0, acceptedAt
	}
	w.lastEpoch = epoch
	w.sent = append(w.sent, b)
	w.accept = append(w.accept, acceptedAt.Sub(from))
	return epoch, acceptedAt
}

// probe blocks on c until epoch is visible and returns when it was seen.
func probe(c *conn, epoch int64) (time.Time, bool) {
	body := c.post("/v1/evaluate", probeBody(epoch))
	now := time.Now()
	if body == nil {
		return now, false
	}
	if answer, _, ok := splitAnswer(body); !ok || answerEpoch(answer) < epoch {
		c.fail(fmt.Errorf("probe for epoch %d answered %s", epoch, body))
		return now, false
	}
	return now, true
}

// runPaced sends one batch per pace interval and follows each accepted
// batch with a probe on the same connection. It sends count batches, or
// until the deadline when count is 0.
//
// With openLoop, batch i is due at start+i*pace whether or not the previous
// one is visible yet, and accept latency counts from the due time, so a
// stall shows in every batch it delays. Without it (the warm-up and the
// tails) a batch that finds the previous one still invisible simply goes
// out late and is timed from when it was sent: a tail samples the write
// path, it does not load it, and must not build a backlog on an index
// whose repair outlasts the pace.
func (w *writer) runPaced(pace time.Duration, count int, until time.Time, openLoop bool) {
	start := time.Now()
	w.firstTimed = start
	for i := 0; count == 0 || i < count; i++ {
		due := start.Add(time.Duration(i) * pace)
		if count == 0 && (!due.Before(until) || (!openLoop && !time.Now().Before(until))) {
			return // the schedule is over, or a tail that runs late has had its time
		}
		// Sleep to within a millisecond of the due time and spin the rest:
		// a timer that fires late on a busy box would be counted as accept
		// latency, and it is the generator's noise, not the daemon's.
		if d := time.Until(due) - time.Millisecond; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		from := due
		if !openLoop {
			from = time.Now()
		}
		w.late = append(w.late, time.Since(due))
		epoch, at := w.send(from)
		if epoch == 0 {
			continue
		}
		if seen, ok := probe(w.conn, epoch); ok {
			w.lag = append(w.lag, seen.Sub(at))
			w.lastSeen = seen
		}
	}
}

// accepted is what the burst writer tells the prober about one batch.
type accepted struct {
	epoch int64
	at    time.Time
}

// runBurst is the closed-loop writer: one-op batches back to back until
// the deadline. Every accept is offered to the prober without blocking.
func (w *writer) runBurst(until time.Time, notify chan<- accepted) {
	defer close(notify)
	w.firstTimed = time.Now()
	for time.Now().Before(until) {
		epoch, at := w.send(time.Now())
		if epoch == 0 {
			continue
		}
		select {
		case notify <- accepted{epoch, at}:
		default: // the prober is inside a probe; it takes a later epoch
		}
	}
}

// runProber samples visible lag beside a burst: whenever it is free it
// takes the next accepted batch whose epoch is a multiple of each, blocks
// until that epoch is visible, and records accept-to-visible. notify is
// unbuffered, so an offer made while a probe is in flight is dropped and
// never read late as lag the batch did not have. When the writer is done
// the prober waits for the final epoch. It uses its own connection.
func runProber(c *conn, each int, notify <-chan accepted, final func() int64) (lag []time.Duration, lastSeen time.Time) {
	for a := range notify {
		if a.epoch%int64(each) != 0 {
			continue
		}
		if seen, ok := probe(c, a.epoch); ok {
			lag = append(lag, seen.Sub(a.at))
		}
	}
	if e := final(); e > 0 {
		if seen, ok := probe(c, e); ok {
			lastSeen = seen
		}
	}
	return lag, lastSeen
}
