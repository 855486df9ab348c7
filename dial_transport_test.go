package oasis_test

import (
	"testing"

	"oasis"
)

// TestTransportDialShapes pins the Transport → Dial contract against
// the flagbind documentation: which client shape, and how many lanes,
// each transport configuration selects.
func TestTransportDialShapes(t *testing.T) {
	secret := []byte("transport-shape-test")
	srv := oasis.NewMemServer(secret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv2 := oasis.NewMemServer(secret, nil)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// PoolSize 1 "keeps a single resilient connection" (the flagbind
	// contract): the resilient client with one lane. PoolSize > 1 is the
	// same type, wider.
	for _, lanes := range []int{1, 3} {
		conn, err := oasis.Dial(addr.String(), secret, oasis.WithTransport(oasis.Transport{PoolSize: lanes}))
		if err != nil {
			t.Fatal(err)
		}
		pool, ok := conn.(*oasis.MemClientPool)
		if !ok {
			t.Fatalf("Transport{PoolSize: %d} dialed a %T, want the resilient client", lanes, conn)
		}
		if pool.Size() != lanes {
			t.Fatalf("Transport{PoolSize: %d} dialed %d lanes", lanes, pool.Size())
		}
		conn.Close()
	}

	// A zero transport keeps one connection.
	conn, err := oasis.Dial(addr.String(), secret, oasis.WithTransport(oasis.Transport{}))
	if err != nil {
		t.Fatal(err)
	}
	if pool, ok := conn.(*oasis.MemClientPool); !ok || pool.Size() != 1 {
		t.Fatalf("zero Transport dialed a %T, want a one-lane pool", conn)
	}
	conn.Close()

	// A sharded transport selects the fabric and propagates the backend
	// list and replica count into the ring; PoolSize sizes the
	// per-backend pools rather than changing the shape.
	backends := []string{addr.String(), addr2.String()}
	conn, err = oasis.Dial("", secret, oasis.WithTransport(oasis.Transport{
		PoolSize: 1, Backends: backends, Replicas: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	fab, ok := conn.(*oasis.ShardClient)
	if !ok {
		t.Fatalf("sharded Transport dialed a %T, want the fabric client", conn)
	}
	if got := fab.Backends(); len(got) != 2 || got[0] != backends[0] || got[1] != backends[1] {
		t.Fatalf("fabric backends = %v, want %v", got, backends)
	}
	if r := fab.Ring().Replicas(); r != 1 {
		t.Fatalf("fabric replicas = %d, want the transport's 1", r)
	}
	fab.Close()

	// Replicas <= 0 takes the fabric default (2), the same default
	// oasis.Dial applies via WithBackends alone.
	conn, err = oasis.Dial("", secret, oasis.WithTransport(oasis.Transport{Backends: backends}))
	if err != nil {
		t.Fatal(err)
	}
	fab = conn.(*oasis.ShardClient)
	if r := fab.Ring().Replicas(); r != 2 {
		t.Fatalf("default fabric replicas = %d, want 2", r)
	}
	fab.Close()
}
