package oasis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"

	"oasis"
)

// apiGolden is the facade's exported surface. A failure here means the
// public API changed: if that is intentional, update the list (and the
// README/DESIGN.md sections that document the affected symbols); if not,
// an internal refactor leaked.
var apiGolden = []string{
	"ApplySnapshot",
	"BindTransportFlags",
	"Bytes",
	"Cluster",
	"ClusterConfig",
	"ClusterModel",
	"ClusterStats",
	"ContinuousResult",
	"DBVM",
	"DayKind",
	"Default",
	"DefaultClusterConfig",
	"DefaultMetrics",
	"DefaultPowerProfile",
	"DefaultSimConfig",
	"DesktopVM",
	"Dial",
	"DialOption",
	"DialShard",
	"EncodeImage",
	"EncodeImageDiff",
	"ErrCircuitOpen",
	"ErrMemtapDegraded",
	"FleetConfig",
	"FleetResult",
	"FullOnly",
	"FulltoPartial",
	"GenerateTrace",
	"GiB",
	"Image",
	"KiB",
	"LinearPowerProfile",
	"MemClient",
	"MemClientPool",
	"MemConn",
	"MemPoolConfig",
	"MemServer",
	"MemServerStats",
	"Memtap",
	"MemtapOptions",
	"MetricsRegistry",
	"MetricsServer",
	"MiB",
	"MicroBenchModel",
	"MigrationModel",
	"NewCluster",
	"NewHome",
	"NewImage",
	"NewMemServer",
	"NewMemtap",
	"NewMemtapWithClient",
	"NewMemtapWithOptions",
	"NewMetricsRegistry",
	"NewPartialVM",
	"NewSimulator",
	"NewVMDescriptor",
	"OnlyPartial",
	"PFN",
	"PageSize",
	"Pager",
	"ParseScenario",
	"PartialVM",
	"Policy",
	"PowerProfile",
	"ResilienceConfig",
	"ResilienceStats",
	"SampleWorkingSet",
	"Scenario",
	"ScenarioByName",
	"ScenarioNames",
	"ServeMetrics",
	"ShardClient",
	"ShardConfig",
	"SimConfig",
	"SimResult",
	"SimSummary",
	"Simulate",
	"SimulateContinuous",
	"SimulateN",
	"SimulateFleet",
	"SimulateWeek",
	"SplitSnapshot",
	"StreamTrace",
	"TraceSet",
	"TraceStream",
	"TraceUserDay",
	"Transport",
	"UploadOptions",
	"UserDay",
	"VMClass",
	"VMDescriptor",
	"VMID",
	"WebVM",
	"WeekResult",
	"Weekday",
	"Weekend",
	"WithBackends",
	"WithPool",
	"WithReplicas",
	"WithResilience",
	"WithTLS",
	"WithTimeout",
	"WithTransport",
	"WriteFaultTraces",
	"WriteMetricsText",
}

// exportedSymbols parses the facade package (non-test files) and
// returns its exported top-level identifiers, sorted.
func exportedSymbols(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["oasis"]
	if !ok {
		t.Fatal("package oasis not found in .")
	}
	var names []string
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestAPISurfaceGolden pins the facade's exported symbol set, so the
// redesigned dial API (and everything else) cannot drift silently.
func TestAPISurfaceGolden(t *testing.T) {
	got := exportedSymbols(t)
	want := append([]string(nil), apiGolden...)
	sort.Strings(want)

	gotSet := make(map[string]bool, len(got))
	for _, n := range got {
		gotSet[n] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, n := range want {
		wantSet[n] = true
	}
	for _, n := range got {
		if !wantSet[n] {
			t.Errorf("new exported symbol %q not in the golden API list", n)
		}
	}
	for _, n := range want {
		if !gotSet[n] {
			t.Errorf("exported symbol %q missing from the facade", n)
		}
	}
}

// TestDialCoversEveryTransportShape asserts every client shape the
// facade exports is reachable through the one Dial entry point — the
// returned static type is always MemConn, and every exported concrete
// type satisfies it.
func TestDialCoversEveryTransportShape(t *testing.T) {
	// Compile-time: all three shapes are MemConns, so anything written
	// against Dial's return type works against any of them.
	var _ oasis.MemConn = (*oasis.MemClient)(nil)
	var _ oasis.MemConn = (*oasis.MemClientPool)(nil)
	var _ oasis.MemConn = (*oasis.ShardClient)(nil)

	secret := []byte("api-test")
	srv := oasis.NewMemServer(secret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, tc := range []struct {
		name string
		opts []oasis.DialOption
		want string
	}{
		{"bare", nil, "*memserver.Client"},
		{"resilient", []oasis.DialOption{oasis.WithResilience(oasis.ResilienceConfig{})}, "*memserver.ClientPool"},
		{"pool", []oasis.DialOption{oasis.WithPool(2)}, "*memserver.ClientPool"},
		{"fabric", []oasis.DialOption{oasis.WithBackends(addr.String()), oasis.WithReplicas(1)}, "*shard.Client"},
		{"transport", []oasis.DialOption{oasis.WithTransport(oasis.Transport{
			PoolSize: 2, Backends: []string{addr.String()}, Replicas: 1,
		})}, "*shard.Client"},
	} {
		conn, err := oasis.Dial(addr.String(), secret, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch tc.want {
		case "*memserver.Client":
			_, ok := conn.(*oasis.MemClient)
			if !ok {
				t.Errorf("%s: Dial returned %T", tc.name, conn)
			}
		case "*memserver.ClientPool":
			if _, ok := conn.(*oasis.MemClientPool); !ok {
				t.Errorf("%s: Dial returned %T", tc.name, conn)
			}
		case "*shard.Client":
			if _, ok := conn.(*oasis.ShardClient); !ok {
				t.Errorf("%s: Dial returned %T", tc.name, conn)
			}
		}
		conn.Close()
	}
}
