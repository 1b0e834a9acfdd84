package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"sctbench/internal/faultinject"
)

// Client is the workers' JSON/HTTP client with retry on transient
// failures: exponential backoff with jitter, bounded by Retries. Every
// endpoint it talks to is idempotent (completions deduplicate, parks are
// fenced, heartbeats and leases are naturally re-issuable), so retrying a
// request whose reply was lost is always safe.
type Client struct {
	// Base is the coordinator address, e.g. "http://127.0.0.1:4077".
	Base string
	// HTTP is the underlying client (http.DefaultClient if nil).
	HTTP *http.Client
	// Retries is the number of attempts per call (default 8).
	Retries int
	// Backoff is the initial retry delay (default 10ms), doubled per
	// attempt with up to 50% random jitter, capped at one second.
	Backoff time.Duration
}

// errTransient marks failures worth retrying (connection refused, dropped
// request or reply, 5xx).
var errTransient = errors.New("transient rpc failure")

// call POSTs req as JSON to path and decodes the reply into out, retrying
// transient failures with exponential backoff + jitter. The faultinject
// RPC points simulate a lossy network here, on the client side, where a
// real network would lose them:
//
//   - RPCDropRequest: the request never reaches the wire; the server saw
//     nothing and the retry is trivially safe.
//   - RPCDropReply: the server processed the request but the reply is
//     lost; the retry re-delivers the request, so the server must absorb
//     the duplicate idempotently.
//   - RPCDuplicate: the request is delivered twice back to back and the
//     second reply is used — the mirror image of the dropped-reply case.
func (c *Client) call(path string, req, out any) error {
	retries := c.Retries
	if retries <= 0 {
		retries = 8
	}
	delay := c.Backoff
	if delay <= 0 {
		delay = 10 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			sleep := delay + time.Duration(rand.Int63n(int64(delay)/2+1))
			time.Sleep(sleep)
			if delay *= 2; delay > time.Second {
				delay = time.Second
			}
		}
		err := c.once(path, req, out)
		if err == nil {
			return nil
		}
		if !errors.Is(err, errTransient) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%s: retries exhausted: %w", path, lastErr)
}

// once performs a single request/response cycle with the injected network
// faults applied.
func (c *Client) once(path string, req, out any) error {
	if faultinject.Hit(faultinject.RPCDropRequest) {
		return fmt.Errorf("%w: request dropped (injected)", errTransient)
	}
	dup := faultinject.Hit(faultinject.RPCDuplicate)
	dropReply := faultinject.Hit(faultinject.RPCDropReply)
	if dup {
		// First delivery of the duplicated request; its reply is ignored.
		_ = c.send(path, req, nil)
	}
	if dropReply {
		// The server-side effect happens; the caller must not see any of
		// the reply (decoding it into out would leave its fields behind for
		// the retry's reply to be merged onto), so the retry re-delivers
		// the request.
		if err := c.send(path, req, nil); err != nil {
			return err
		}
		return fmt.Errorf("%w: reply dropped (injected)", errTransient)
	}
	return c.send(path, req, out)
}

// send is one raw HTTP round trip; out may be nil to discard the reply.
func (c *Client) send(path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("%s: encode: %w", path, err)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", errTransient, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%w: read reply: %v", errTransient, err)
	}
	if resp.StatusCode >= 500 {
		return fmt.Errorf("%w: http %d: %s", errTransient, resp.StatusCode, data)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: http %d: %s", path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: decode reply: %w", path, err)
	}
	return nil
}
