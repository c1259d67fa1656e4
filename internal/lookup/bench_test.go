package lookup

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/wire"
)

// benchRecords is the planet-scale directory size the resolve benchmarks
// run against: 2^20 ≈ 10^6 address records.
const benchRecords = 1 << 20

// benchAddr derives a distinct, valid address from an index. fd00::/8 is
// a ULA-style prefix, so the addresses never collide with lab allocations.
func benchAddr(i int) wire.Addr {
	var b [16]byte
	b[0] = 0xfd
	binary.BigEndian.PutUint64(b[8:], uint64(i))
	return netip.AddrFrom16(b)
}

var benchState struct {
	once  sync.Once
	svc   *Service
	owner cryptutil.SigningKeypair
	sns   []wire.Addr
	addrs []wire.Addr
}

// benchService returns a lookup service pre-loaded with benchRecords
// address records, built once and shared by every benchmark in the
// package. Records load through RestoreRecords (the replication/restore
// path) so setup does not pay one ed25519 verification per record —
// about a minute of setup at this scale.
func benchService(b *testing.B) (*Service, []wire.Addr) {
	benchState.once.Do(func() {
		owner, err := cryptutil.NewSigningKeypair()
		if err != nil {
			panic(err)
		}
		benchState.owner = owner
		benchState.sns = []wire.Addr{wire.MustAddr("fc00::1")}
		benchState.svc = New()
		recs := make([]AddrRecord, benchRecords)
		benchState.addrs = make([]wire.Addr, benchRecords)
		for i := range recs {
			a := benchAddr(i)
			benchState.addrs[i] = a
			recs[i] = AddrRecord{Addr: a, Owner: owner.Public, SNs: benchState.sns}
		}
		benchState.svc.RestoreRecords(recs)
	})
	if got := benchState.svc.recordCount.Load(); got < benchRecords {
		b.Fatalf("bench service holds %d records, want >= %d", got, benchRecords)
	}
	return benchState.svc, benchState.addrs
}

// BenchmarkLookupResolve measures the single-thread snapshot read path at
// directory scale: resolution must stay a pointer load plus two map
// probes no matter how many records are registered. Its 0 allocs/op is
// pinned by TestResolveIsAllocationAndLockFree; its ns/op is the
// benchmark's lookup.resolve_ns row.
func BenchmarkLookupResolve(b *testing.B) {
	svc, addrs := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.ResolveAddress(addrs[i&(benchRecords-1)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "resolves/s")
}

// BenchmarkLookupResolveParallel is the contention case: every core
// resolving at once. Reads share one atomic snapshot pointer and touch no
// lock (TestResolveIsAllocationAndLockFree holds a resolve to that), so
// parallel throughput should meet or beat single-thread throughput.
func BenchmarkLookupResolveParallel(b *testing.B) {
	svc, addrs := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 7919 // offset streams so goroutines walk different records
		for pb.Next() {
			if _, err := svc.ResolveAddress(addrs[i&(benchRecords-1)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "resolves/s")
}

// BenchmarkLookupChurn measures resolve latency while a background
// registrar continuously re-registers records (signature verification,
// delta writes, periodic fold). This is the RCU claim under test:
// registration churn must not drag readers onto a lock. Not alloc-gated —
// ReportAllocs counts the registrar goroutine's signing work too. The
// timed loop starts only once the registrar has registered, and churn/s
// counts every registration since the registrar started, so a short run
// on one CPU cannot read 0.
func BenchmarkLookupChurn(b *testing.B) {
	svc, addrs := benchService(b)
	stop, stopped, registered := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var churned atomic.Uint64
	churnStart := time.Now()
	go func() {
		defer close(stopped)
		// Pre-sign outside the loop: the churn we want to exercise is the
		// service's write path (verify + delta publish + fold), and one
		// signature can re-register the same record repeatedly.
		a := benchState.addrs[0]
		sig := SignAddrRecord(benchState.owner, a, benchState.sns)
		rec := AddrRecord{Addr: a, Owner: benchState.owner.Public, SNs: benchState.sns}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := svc.RegisterAddress(rec, sig); err != nil {
				panic(fmt.Sprintf("churn registration: %v", err))
			}
			if churned.Add(1) == 1 {
				close(registered)
			}
		}
	}()
	<-registered
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := svc.ResolveAddress(addrs[i&(benchRecords-1)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	churn := churned.Load()
	close(stop)
	<-stopped
	if churn == 0 {
		b.Fatal("no registration ran: the benchmark measured no churn")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "resolves/s")
	b.ReportMetric(float64(churn)/time.Since(churnStart).Seconds(), "churn/s")
}

// BenchmarkWatchFanout measures one registration's fan-out to a panel of
// address watchers: the cost a write pays to notify every subscribed
// cache tier under the mutex.
func BenchmarkWatchFanout(b *testing.B) {
	const watchers = 16
	svc := New()
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < watchers; w++ {
		ch, cancel := svc.WatchAddresses(1024)
		defer cancel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
			}
		}()
	}
	a := benchAddr(0)
	sns := []wire.Addr{wire.MustAddr("fc00::1")}
	sig := SignAddrRecord(owner, a, sns)
	rec := AddrRecord{Addr: a, Owner: owner.Public, SNs: sns}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.RegisterAddress(rec, sig); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*watchers)/b.Elapsed().Seconds(), "events/s")
}
