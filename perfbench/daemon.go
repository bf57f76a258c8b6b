package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// daemon is one serve.Server on a real loopback listener.
type daemon struct {
	s      *serve.Server
	hs     *http.Server
	url    string
	reg    *metrics.Registry
	served chan struct{} // closed when hs.Serve returns
}

// startDaemon opens a daemon on ln (a fresh loopback listener when nil)
// and waits until GET /readyz answers 200.
func startDaemon(hc *http.Client, opts serve.Options, ln net.Listener) (*daemon, error) {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	s, err := serve.New(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	d := &daemon{
		s:      s,
		hs:     &http.Server{Handler: s.Handler()},
		url:    "http://" + ln.Addr().String(),
		reg:    opts.Registry,
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	if err := d.waitReady(hc); err != nil {
		_ = d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready after 30s (last error %v)", d.url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, drains the daemon and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	<-d.served
	return errors.Join(herr, d.s.Shutdown(ctx))
}

// stopKeepingJournal stops d leaving the journal as a crash would: it
// admits one long job (seed makes it fresh) and drains with an expired
// deadline while that job runs, so the drain is forced and skips the
// clean-drain compaction. The next start replays every record.
func (d *daemon) stopKeepingJournal(hc *http.Client, seed uint64) error {
	if _, err := postJob(hc, d.url, serve.Spec{Kind: "fig6a", Events: 50000, Seed: seed}); err != nil {
		return errors.Join(err, d.stop())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	herr := d.hs.Close()
	<-d.served
	if err := d.s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		return errors.Join(herr, fmt.Errorf("forced drain: got %v, want context.Canceled", err))
	}
	return herr
}

// newHTTPClient is the load generator's client: at most conns
// connections to any one daemon.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// answer is one HTTP response as the checks need it.
type answer struct {
	code  int
	body  []byte
	cache string // X-Cache
	key   string // X-Job-Key
}

func do(hc *http.Client, req *http.Request) (answer, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	a := answer{code: resp.StatusCode, body: body, cache: resp.Header.Get("X-Cache"), key: resp.Header.Get("X-Job-Key")}
	if a.code/100 != 2 {
		return a, fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, a.code, strings.TrimSpace(string(body)))
	}
	return a, nil
}

// getResult reads a stored result by content address.
func getResult(hc *http.Client, url, key string) (answer, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/v1/results/"+key, nil)
	if err != nil {
		return answer{}, err
	}
	return do(hc, req)
}

// postJob submits a job document and waits for its result.
func postJob(hc *http.Client, url string, spec any) (answer, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return answer{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/experiments", bytes.NewReader(payload))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(hc, req)
}
