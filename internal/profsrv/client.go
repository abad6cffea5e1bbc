package profsrv

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tnsr/internal/pgo"
	"tnsr/internal/retry"
)

// Client talks to a tnsprofd daemon. It implements xrun.ProfileSource
// (Fetch/Push), so a runner can hand it straight to RunAdaptiveOpts and the
// fleet aggregate closes the hint-file loop across machines.
//
// Responses pass through the same strict parser uploads do: a server (or a
// middlebox) handing back damaged JSON produces a typed error, never
// silently-wrong advice. Transient failures — transport errors, 5xx, 429
// (whose Retry-After is honored, capped), damaged bytes — are retried
// under Retry; refusals (401, 409, 413) are terminal *retry.HTTPErrors.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://profiles.fleet:9911".
	BaseURL string
	// Token is the bearer token; empty sends no Authorization header.
	Token string
	// HTTPClient, when nil, falls back to a 30-second-timeout client.
	HTTPClient *http.Client
	// Retry is the transient-failure policy; zero value = retry defaults.
	Retry retry.Policy
}

// NewClient builds a client for a daemon root URL.
func NewClient(baseURL, token string) *Client {
	return &Client{BaseURL: baseURL, Token: token}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) url(fp string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + profilesPrefix + fp
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return c.http().Do(req)
}

// UserFingerprint extracts the user-space fingerprint a profile was
// captured against — the fleet aggregation key.
func UserFingerprint(p *pgo.Profile) (string, error) {
	sp := p.Space("user")
	if sp == nil || sp.Fingerprint == "" {
		return "", fmt.Errorf("profsrv: profile has no user-space fingerprint")
	}
	return sp.Fingerprint, nil
}

// Fetch returns the current aggregate for a fingerprint, or (nil, nil)
// when the server has none — the no-profile case a translator degrades to.
func (c *Client) Fetch(fingerprint string) (*pgo.Profile, error) {
	return c.FetchContext(context.Background(), fingerprint)
}

// FetchContext is Fetch bounded by ctx.
func (c *Client) FetchContext(ctx context.Context, fingerprint string) (*pgo.Profile, error) {
	var p *pgo.Profile
	err := c.Retry.Do(ctx, func() error {
		var err error
		p, err = c.fetchOnce(ctx, fingerprint)
		return err
	})
	return p, err
}

func (c *Client) fetchOnce(ctx context.Context, fingerprint string) (*pgo.Profile, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(fingerprint), nil)
	if err != nil {
		return nil, fmt.Errorf("profsrv: fetch: %w", err)
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, fmt.Errorf("profsrv: fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profsrv: fetch %s: %w", fingerprint, typedStatus(resp))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBody))
	if err != nil {
		return nil, fmt.Errorf("profsrv: fetch: %w", err)
	}
	p, err := pgo.ParseProfile(data)
	if err != nil {
		// Damaged bytes in flight: the strict parser refused them, the
		// server may well hold a good aggregate — transient by policy.
		return nil, fmt.Errorf("profsrv: fetch %s: server sent invalid profile: %w", fingerprint, err)
	}
	return p, nil
}

// Push uploads one capture and returns the merged fleet aggregate the
// server now holds for that fingerprint.
func (c *Client) Push(p *pgo.Profile) (*pgo.Profile, error) {
	return c.PushContext(context.Background(), p)
}

// PushContext is Push bounded by ctx. A replayed push (duplicate delivery,
// retry after an ambiguous timeout) double-merges the capture — by design:
// profile weights are advisory, skewed counts cost interludes downstream,
// never correctness.
func (c *Client) PushContext(ctx context.Context, p *pgo.Profile) (*pgo.Profile, error) {
	fp, err := UserFingerprint(p)
	if err != nil {
		return nil, err
	}
	data, err := p.JSON()
	if err != nil {
		return nil, fmt.Errorf("profsrv: push: %w", err)
	}
	var agg *pgo.Profile
	err = c.Retry.Do(ctx, func() error {
		var err error
		agg, err = c.pushOnce(ctx, fp, data)
		return err
	})
	return agg, err
}

func (c *Client) pushOnce(ctx context.Context, fp string, data []byte) (*pgo.Profile, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(fp), bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profsrv: push: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return nil, fmt.Errorf("profsrv: push: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profsrv: push %s: %w", fp, typedStatus(resp))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBody))
	if err != nil {
		return nil, fmt.Errorf("profsrv: push: %w", err)
	}
	agg, err := pgo.ParseProfile(body)
	if err != nil {
		return nil, fmt.Errorf("profsrv: push %s: server sent invalid aggregate: %w", fp, err)
	}
	return agg, nil
}

// typedStatus folds a non-2xx response into a *retry.HTTPError carrying
// the status, a bounded server message, and any Retry-After.
func typedStatus(resp *http.Response) *retry.HTTPError {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return retry.NewHTTPError(resp, strings.TrimSpace(string(msg)))
}
