package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cachesync/internal/portfile"
)

// PeerSource discovers fleet peers through a shared portfile directory
// — the same handshake the coordinator already uses to find replicas —
// and fetches result-cache entries from them. Every replica writes its
// own "<name>.port" file into the directory; a replica's peers are all
// the other complete portfiles in it, re-scanned with a short TTL so
// respawned replicas (new ephemeral port, same file) are picked up
// without any registration protocol.
//
// A flight leader calls Fetch after a local result-cache miss and
// before computing, so its latency is bounded by a short per-peer
// timeout — a slow or dead peer costs one timeout, then the replica
// computes locally as if the fleet were cold.
type PeerSource struct {
	dir    string
	client *http.Client

	selfMu sync.Mutex
	self   string

	scanMu  sync.Mutex
	scanned time.Time
	peers   []string
}

// peerTimeout bounds one peer artifact probe. It only needs to cover
// a loopback round trip plus one small disk read; keeping it tight
// bounds the worst-case cold-request penalty at peers×timeout.
const peerTimeout = 300 * time.Millisecond

// peerScanTTL is how long a directory scan is reused.
const peerScanTTL = time.Second

// NewPeerSource watches dir for peer portfiles. Call SetSelf once the
// local listener is bound so the source never asks the local process
// for entries it just missed.
func NewPeerSource(dir string) *PeerSource {
	return &PeerSource{
		dir:    dir,
		client: &http.Client{Timeout: peerTimeout},
	}
}

// SetSelf records the local daemon's bound address, excluded from
// every scan.
func (p *PeerSource) SetSelf(addr string) {
	p.selfMu.Lock()
	p.self = addr
	p.selfMu.Unlock()
}

// scan lists the current peer addresses: every complete portfile in
// the directory except our own address, sorted for deterministic probe
// order. Results are cached for peerScanTTL.
func (p *PeerSource) scan() []string {
	p.scanMu.Lock()
	defer p.scanMu.Unlock()
	if time.Since(p.scanned) < peerScanTTL {
		return p.peers
	}
	p.selfMu.Lock()
	self := p.self
	p.selfMu.Unlock()
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		p.peers, p.scanned = nil, time.Now()
		return nil
	}
	var addrs []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".port") {
			continue
		}
		addr, ok := portfile.Read(filepath.Join(p.dir, e.Name()))
		if !ok || addr == self {
			continue
		}
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	p.peers, p.scanned = addrs, time.Now()
	return addrs
}

// Fetch asks each peer in turn for the entry stored under a raw key
// (see runner.Cache.KeyFor) and hands every body a peer serves to
// accept, which checks it against the key (runner.Cache.PutRaw). The
// first accepted body wins; a rejected one is skipped like a peer
// that missed, so a peer serving junk hides no peer after it.
func (p *PeerSource) Fetch(key string, accept func(data []byte) bool) bool {
	for _, addr := range p.scan() {
		resp, err := p.client.Get(fmt.Sprintf("http://%s/v1/artifact/%s", addr, key))
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err == nil && len(data) > 0 && accept(data) {
			return true
		}
	}
	return false
}
