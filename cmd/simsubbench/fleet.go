package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/router"
	"simsub/internal/server"
	"simsub/internal/storage"
)

// node is one durable simsubd equivalent: storage -> engine -> server on a
// loopback listener, assembled the way cmd/simsubd assembles it.
type node struct {
	dir string
	st  *storage.Store
	eng *engine.Engine
	srv *http.Server
	url string
	c   *client.Client // straight at this node
}

// fleet is the system under test: the nodes, the router in front of them
// when there are several, and the client the load generator drives.
type fleet struct {
	root    string // holds every node's data directory
	nodes   []*node
	rt      *router.Router
	edgeSrv *http.Server // the router's HTTP front end (nil for one node)
	edge    *client.Client
	hc      *http.Client
}

// serve starts an HTTP server for h on an ephemeral loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }() // Serve returns when close() shuts the server down
	return srv, "http://" + ln.Addr().String(), nil
}

// newHTTPClient returns a keep-alive client of its own, so that closing a
// fleet closes exactly that fleet's connections.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}}
}

func engineConfig(p params) engine.Config {
	return engine.Config{Shards: p.Shards, CacheSize: p.Cache}
}

// bootNode opens (or recovers) dir and serves an engine over it. The
// policy and the encoder register before the store attaches: simsubd's boot
// order, which lets recovery reuse persisted embeddings.
func bootNode(dir string, p params, in *inputs, hc *http.Client) (*node, *storage.RecoveryStats, error) {
	st, rs, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	eng := engine.New(engineConfig(p))
	if in.policy != nil {
		if _, err := eng.SetPolicyCompiled(in.policy, p.CompileRes); err != nil {
			_ = st.Close()
			return nil, nil, fmt.Errorf("registering the policy: %w", err)
		}
	}
	if in.encoder != nil {
		if _, err := eng.SetEncoder(in.encoder); err != nil {
			_ = st.Close()
			return nil, nil, fmt.Errorf("registering the encoder: %w", err)
		}
	}
	if err := eng.AttachStore(st); err != nil {
		_ = st.Close()
		return nil, nil, fmt.Errorf("attaching %s: %w", dir, err)
	}
	srv, url, err := serve(server.New(eng, server.Options{}))
	if err != nil {
		_ = st.Close()
		return nil, nil, err
	}
	return &node{dir: dir, st: st, eng: eng, srv: srv, url: url, c: client.New(url, client.WithHTTPClient(hc))}, rs, nil
}

// bootFleet boots p.Nodes empty durable nodes under root and, for more than
// one, a router with its HTTP front end; everything else runs at the
// shipped defaults.
func bootFleet(root string, p params, in *inputs) (*fleet, error) {
	f := &fleet{root: root, hc: newHTTPClient()}
	var urls []string
	for i := 0; i < p.Nodes; i++ {
		n, _, err := bootNode(filepath.Join(root, fmt.Sprintf("node%d", i)), p, in, f.hc)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.url)
	}
	if p.Nodes == 1 {
		f.edge = f.nodes[0].c
		return f, nil
	}
	rt, err := router.New(router.Config{Nodes: urls, HTTPClient: f.hc})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("building the router: %w", err)
	}
	f.rt = rt
	var edgeURL string
	f.edgeSrv, edgeURL, err = serve(router.NewHandler(rt, router.HandlerOptions{}))
	if err != nil {
		f.close()
		return nil, err
	}
	f.edge = client.New(edgeURL, client.WithHTTPClient(f.hc))
	return f, nil
}

// load sends the corpus through the public load path (client -> edge),
// snapshotting every node once half the batches are in, so that a later
// recovery both restores a snapshot and replays a log tail.
func (f *fleet) load(ctx context.Context, batches [][]api.Trajectory) (records int, perBatch []time.Duration, err error) {
	for i, b := range batches {
		start := time.Now()
		resp, err := f.edge.Load(ctx, b)
		if err != nil {
			return records, perBatch, fmt.Errorf("load batch %d: %w", i, err)
		}
		perBatch = append(perBatch, time.Since(start))
		records += resp.Loaded
		if i == (len(batches)-1)/2 {
			if err := f.snapshot(); err != nil {
				return records, perBatch, err
			}
		}
	}
	return records, perBatch, nil
}

func (f *fleet) snapshot() error {
	for _, n := range f.nodes {
		if err := n.st.Snapshot(); err != nil {
			return fmt.Errorf("snapshot of %s: %w", n.dir, err)
		}
	}
	return nil
}

// sync fsyncs every node's active segment.
func (f *fleet) sync() error {
	for _, n := range f.nodes {
		if err := n.st.Sync(); err != nil {
			return fmt.Errorf("sync of %s: %w", n.dir, err)
		}
	}
	return nil
}

// stored sums trajectories and points over the nodes.
func (f *fleet) stored() (trajs, points int) {
	for _, n := range f.nodes {
		s := n.eng.Stats()
		trajs += s.Trajectories
		points += s.Points
	}
	return trajs, points
}

// close stops the servers, waits for their handlers, closes the stores and
// drops the keep-alive connections. It is safe on a half-built fleet.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.edgeSrv != nil {
		_ = f.edgeSrv.Shutdown(ctx)
	}
	for _, n := range f.nodes {
		_ = n.srv.Shutdown(ctx)
		_ = n.st.Close()
	}
	f.hc.CloseIdleConnections()
}

// destroy closes the fleet and removes its data directories.
func (f *fleet) destroy() {
	f.close()
	_ = os.RemoveAll(f.root)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of src into a fresh dst. Copying a live
// store's directory is the benchmark's kill -9: the copy holds exactly the
// bytes that reached the files, with no final snapshot and no clean close.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.Close()) }()
	_, err = io.Copy(out, in)
	return err
}
