package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Client is a synchronous connection to an ekbtreed server: one request in
// flight at a time, in protocol order. It is NOT safe for concurrent use by
// multiple goroutines — open one Client per worker (that is also how the
// server's connection-level parallelism is meant to be exercised).
type Client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// Per-request I/O deadlines; zero means none. Set via DialConfig.
	readTimeout  time.Duration
	writeTimeout time.Duration
}

// DialConfig tunes how DialWithConfig establishes a connection and the I/O
// deadlines the resulting client applies per request. The zero value means:
// one dial attempt with defaultDialTimeout, no request deadlines.
type DialConfig struct {
	// DialTimeout bounds each connection attempt; zero means
	// defaultDialTimeout.
	DialTimeout time.Duration
	// DialRetries is how many additional attempts follow a failed dial
	// (total attempts = DialRetries+1). Zero means fail on the first error.
	DialRetries int
	// RetryBackoff is the pause before the first retry, doubling per attempt
	// and capped at maxRetryBackoff; zero means defaultRetryBackoff.
	RetryBackoff time.Duration
	// ReadTimeout bounds waiting for each response; zero means no deadline.
	// A request that outlives it fails with a net timeout error and the
	// connection is no longer usable (the protocol is synchronous).
	ReadTimeout time.Duration
	// WriteTimeout bounds sending each request; zero means no deadline.
	WriteTimeout time.Duration
}

const (
	defaultDialTimeout  = 5 * time.Second
	defaultRetryBackoff = 50 * time.Millisecond
	maxRetryBackoff     = 2 * time.Second
)

// Dial connects to an ekbtreed server with a single attempt and no request
// deadlines. The returned client is connected but not yet authenticated; call
// Handshake next.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialWithConfig(addr, DialConfig{DialTimeout: timeout})
}

// DialWithConfig connects to an ekbtreed server, retrying failed dials with
// bounded exponential backoff per cfg, and arms the client's per-request I/O
// deadlines. The returned client is connected but not yet authenticated; call
// Handshake next.
func DialWithConfig(addr string, cfg DialConfig) (*Client, error) {
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			c := NewClient(nc)
			c.readTimeout = cfg.ReadTimeout
			c.writeTimeout = cfg.WriteTimeout
			return c, nil
		}
		lastErr = err
		if attempt >= cfg.DialRetries {
			return nil, lastErr
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// NewClient wraps an established connection (useful for tests and custom
// transports).
func NewClient(nc net.Conn) *Client {
	return &Client{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

// Close closes the underlying connection. Server-side, closing releases every
// cursor the connection still holds.
func (c *Client) Close() error { return c.nc.Close() }

// do sends one request and returns the OK body of its response, applying the
// client's per-request deadlines around the write and the response read.
func (c *Client) do(req Request) ([]byte, error) {
	if c.writeTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return nil, err
		}
	}
	if err := WriteFrame(c.bw, EncodeRequest(req)); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if c.readTimeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return nil, err
		}
	}
	payload, err := ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}

// Handshake authenticates the connection as tenant, proving knowledge of the
// tenant's authentication subkey (ekbtree.DeriveMaterial(master).AuthKey).
// On failure the server closes the connection; the client is then unusable.
func (c *Client) Handshake(tenant string, authKey []byte) error {
	challenge, err := c.do(&Hello{Version: ProtocolVersion, Tenant: tenant})
	if err != nil {
		return err
	}
	if len(challenge) != ChallengeSize {
		return errorf("challenge is %d bytes, want %d", len(challenge), ChallengeSize)
	}
	_, err = c.do(&Auth{Proof: ProveAuth(authKey, challenge, tenant)})
	return err
}

// Open attaches the authenticated tenant's tree; required once before any
// data-plane call.
func (c *Client) Open() error {
	_, err := c.do(&Open{})
	return err
}

// Put stores value under the plaintext key.
func (c *Client) Put(key, value []byte) error {
	_, err := c.do(&Put{Key: key, Value: value})
	return err
}

// Get returns the value stored under the plaintext key.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	body, err := c.do(&Get{Key: key})
	if err != nil {
		return nil, false, err
	}
	return DecodeGetBody(body)
}

// Delete removes the plaintext key, reporting whether it was present.
func (c *Client) Delete(key []byte) (bool, error) {
	body, err := c.do(&Delete{Key: key})
	if err != nil {
		return false, err
	}
	return DecodeFoundBody(body)
}

// BatchCommit applies ops in order, atomically per shard (the ekbtree
// Batch.Commit contract): not atomic across an ekbtreed -shards N tenant.
func (c *Client) BatchCommit(ops []BatchOp) error {
	_, err := c.do(&BatchCommit{Ops: ops})
	return err
}

// CursorOpen opens a snapshot cursor over [lo, hi) in plaintext bounds (nil =
// unbounded), pinned to the tree version current at the call, and returns its
// ID.
func (c *Client) CursorOpen(lo, hi []byte) (uint64, error) {
	req := &CursorOpen{HasLo: lo != nil, Lo: lo, HasHi: hi != nil, Hi: hi}
	body, err := c.do(req)
	if err != nil {
		return 0, err
	}
	return DecodeCursorIDBody(body)
}

// CursorNext streams up to max entries from cursor id. done is true once the
// cursor is exhausted (the server has closed it; no CursorClose needed).
func (c *Client) CursorNext(id uint64, max int) (entries []Entry, done bool, err error) {
	if max <= 0 {
		return nil, false, fmt.Errorf("wire: CursorNext max must be positive")
	}
	body, err := c.do(&CursorNext{Cursor: id, Max: uint64(max)})
	if err != nil {
		return nil, false, err
	}
	return DecodeEntriesBody(body)
}

// CursorClose releases cursor id and its snapshot pin.
func (c *Client) CursorClose(id uint64) error {
	_, err := c.do(&CursorClose{Cursor: id})
	return err
}

// Stats returns the tenant tree's stats as JSON (unmarshal into
// ekbtree.Stats).
func (c *Client) Stats() ([]byte, error) {
	body, err := c.do(&Stats{})
	if err != nil {
		return nil, err
	}
	return DecodeBytesBody(body)
}

// Sync blocks until every write acknowledged before the call is durable on
// the server.
func (c *Client) Sync() error {
	_, err := c.do(&Sync{})
	return err
}

// Vacuum compacts the tenant tree's backing files online until their total
// size is at or below target bytes, or as far as the layout allows for 0. It
// returns when the pass completes; other connections' traffic proceeds
// throughout.
func (c *Client) Vacuum(target uint64) error {
	_, err := c.do(&Vacuum{Target: target})
	return err
}
