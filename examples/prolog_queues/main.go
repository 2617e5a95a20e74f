// Prolog service queues on the two-tier Aquarius architecture
// (Figure 11): lightweight processes on program processors exchange
// service requests through queue descriptors — hard atoms living on
// the synchronization bus — while instruction fetch and
// non-synchronization data go through the crossbar tier. Run with:
//
//	go run ./examples/prolog_queues
package main

import (
	"fmt"
	"math/rand"

	"cachesync/internal/addr"
	"cachesync/internal/aquarius"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

const (
	procs    = 4
	requests = 30
)

func main() {
	a := aquarius.New(aquarius.DefaultConfig(procs))
	l := workload.Layout{G: a.Sync.Geometry()}

	// Each processor owns a request queue: a lock block plus a
	// descriptor block on the synchronization tier.
	ws := make([]func(*sim.Proc), procs)
	served := make([]int, procs)
	for i := range ws {
		i := i
		rng := rand.New(rand.NewSource(int64(i) + 1))
		ws[i] = func(p *sim.Proc) {
			for r := 0; r < requests; r++ {
				// "Run" the interpreter: instruction fetches through
				// the crossbar tier.
				for pc := 0; pc < 6; pc++ {
					p.InstrFetch(addr.Addr(4096 + i*64 + pc))
				}
				// Bind a variable in non-synchronization data space.
				p.WriteClass(addr.Addr(8192+i*requests+r), uint64(r), interconnect.Data)

				// Post a service request to another processor's queue
				// (e.g. the floating-point processor of Section B.1).
				target := (i + 1 + rng.Intn(procs-1)) % procs
				lock := l.LockAddr(2 + target)
				desc := l.G.Base(l.SharedBlock(1 + target))
				syncprim.Acquire(p, syncprim.CacheLock, lock)
				n := p.Read(desc)
				p.Write(desc, n+1)
				syncprim.Release(p, syncprim.CacheLock, lock)

				// Service one request from my own queue.
				myLock := l.LockAddr(2 + i)
				myDesc := l.G.Base(l.SharedBlock(1 + i))
				syncprim.Acquire(p, syncprim.CacheLock, myLock)
				if n := p.Read(myDesc); n > 0 {
					p.Write(myDesc, n-1)
					served[i]++
				}
				syncprim.Release(p, syncprim.CacheLock, myLock)
			}
		}
	}
	if err := a.Run(ws); err != nil {
		panic(err)
	}

	fmt.Printf("Aquarius two-tier run: %d processors, %d requests each\n", procs, requests)
	fmt.Printf("finished at cycle %d\n", a.Sync.Clock())
	fmt.Printf("sync tier:  %d lock acquisitions, %d unlock broadcasts, %d bus cycles\n",
		a.Sync.Counts.Get("lock.acquired"), a.Sync.Counts.Get("lock.broadcast"),
		a.Sync.Counts.Get("bus.cycles"))
	fmt.Printf("lower tier: %d crossbar accesses, %d bank-wait cycles, ibuf hit rate %d/%d\n",
		a.Counts.Get("xbar.access"), a.Counts.Get("xbar.bank-wait"),
		a.Counts.Get("ibuf.hit"), a.Counts.Get("ibuf.hit")+a.Counts.Get("ibuf.miss"))
	fmt.Printf("bank loads: %v\n", a.BankLoads())
	total := 0
	for i, n := range served {
		fmt.Printf("processor %d served %d requests\n", i, n)
		total += n
	}
	fmt.Printf("total served: %d\n", total)
}
