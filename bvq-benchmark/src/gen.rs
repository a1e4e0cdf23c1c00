//! Seeded workload generation: databases (as db-text), wire request
//! lines, request orders and mutation sequences.
//!
//! Everything the server sees is produced here, and everything here is a
//! pure function of the seed: the same seed gives byte-identical db-text
//! and request sequences. The server only ever receives the generated
//! db-text (through `load_db`) and wire lines.
//!
//! The mixes are shaped so that each reported percentile falls inside
//! the latency band of one template whose cost does not depend on the
//! seed (path graphs, constants drawn per request from their full range),
//! never on the boundary between two templates: a percentile on a
//! boundary jumps between the two costs from run to run.

use bvq_logic::patterns;
use bvq_logic::{Query, Term, Var};
use bvq_prng::Rng;
use bvq_relation::{parse_database, write_database, Database, Relation};
use bvq_server::exec::{CompileMode, EvalOptions, ExecRequest};
use bvq_server::Json;
use bvq_workload::graphs::{edges, graph_db};
use bvq_workload::GraphKind;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 45235;

/// The benchmark's workloads; see `BENCHMARK.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-distributed cheap reads over a working set larger than the
    /// result cache: p50 is the cache-hit path, p90 the cheap-miss path.
    WarmMix,
    /// Uncached engine-bound requests over every query language.
    ColdEval,
    /// Single-tuple mutations maintaining three subscriptions, beside
    /// cached reads.
    WriteMix,
    /// Certifiable requests fanned out to an untrusted replica and
    /// checked by the coordinator.
    ReplicaFanout,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmMix,
        Workload::ColdEval,
        Workload::WriteMix,
        Workload::ReplicaFanout,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMix => "warm_mix",
            Workload::ColdEval => "cold_eval",
            Workload::WriteMix => "write_mix",
            Workload::ReplicaFanout => "replica_fanout",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The per-template probes of the traced run, in report order.
pub const TEMPLATES: [&str; 9] = [
    "fo_2hop",
    "fo_3hop_p",
    "reach",
    "fp_tc",
    "dl_tc",
    "fair",
    "pfp_reach",
    "chain6",
    "eso_2col",
];

/// The templates whose certificates the traced run emits and checks.
pub const CERT_TEMPLATES: [&str; 4] = ["fp_tc", "dl_tc", "reach", "fo_2hop"];

/// A generated database: its wire name, its db-text, and the parsed
/// form the in-process references and probes evaluate against.
#[derive(Clone, Debug)]
pub struct GenDb {
    /// The name requests address it by.
    pub name: String,
    /// The db-text sent with `load_db`.
    pub text: String,
    /// `text` parsed back, so in-process work sees exactly what the
    /// server sees.
    pub db: Database,
}

impl GenDb {
    fn new(name: &str, db: Database) -> GenDb {
        let text = write_database(&db);
        let db = parse_database(&text).expect("generated db-text parses");
        GenDb {
            name: name.to_string(),
            text,
            db,
        }
    }
}

/// What a read request evaluates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Body {
    /// An FO/FP/PFP query (the `eval` op).
    Query(String),
    /// A Datalog program and its output predicate (the `datalog` op).
    Datalog {
        /// Program text.
        program: String,
        /// Output predicate.
        output: String,
    },
    /// An ESO sentence (the `eso` op).
    Eso(String),
}

/// One distinct read request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The template the request instantiates.
    pub template: &'static str,
    /// The database it addresses.
    pub db: String,
    /// What it evaluates.
    pub body: Body,
    /// Sent with `no_cache: true`.
    pub no_cache: bool,
}

impl Request {
    fn new(template: &'static str, db: &str, body: Body) -> Request {
        Request {
            template,
            db: db.to_string(),
            body,
            no_cache: false,
        }
    }

    /// The request's wire line (one JSON object, no trailing newline).
    pub fn wire_line(&self, stream: bool) -> String {
        let mut fields: Vec<(&'static str, Json)> = Vec::new();
        let (op, text_field, text) = match &self.body {
            Body::Query(q) => ("eval", "query", q),
            Body::Datalog { program, .. } => ("datalog", "program", program),
            Body::Eso(q) => ("eso", "query", q),
        };
        fields.push(("op", Json::str(op)));
        fields.push(("db", Json::str(self.db.as_str())));
        fields.push((text_field, Json::str(text.as_str())));
        if let Body::Datalog { output, .. } = &self.body {
            fields.push(("output", Json::str(output.as_str())));
        }
        if self.no_cache {
            fields.push(("no_cache", Json::Bool(true)));
        }
        if stream {
            fields.push(("stream", Json::Bool(true)));
        }
        Json::obj(fields).to_string_compact()
    }

    /// The same request as an in-process [`ExecRequest`] with the given
    /// compile mode and otherwise the server's default options.
    pub fn exec_request(&self, compile: CompileMode) -> ExecRequest {
        let req = match &self.body {
            Body::Query(q) => ExecRequest::query(q.clone()),
            Body::Datalog { program, output } => ExecRequest::datalog(program.clone(), output),
            Body::Eso(q) => ExecRequest::eso(q.clone()),
        };
        req.with_opts(EvalOptions {
            compile,
            ..EvalOptions::default()
        })
    }
}

/// One single-tuple mutation of relation `E`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeMutation {
    /// Delete (`true`) or insert (`false`).
    pub delete: bool,
    /// The edge.
    pub edge: (u32, u32),
    /// Whether the edge points at a sink (see [`MutationGen`]).
    pub leaf: bool,
}

impl EdgeMutation {
    /// The mutation's wire line.
    pub fn wire_line(&self, db: &str) -> String {
        Json::obj([
            (
                "op",
                Json::str(if self.delete { "delete" } else { "insert" }),
            ),
            ("db", Json::str(db)),
            ("rel", Json::str("E")),
            (
                "tuple",
                Json::Arr(vec![
                    Json::num(u64::from(self.edge.0)),
                    Json::num(u64::from(self.edge.1)),
                ]),
            ),
        ])
        .to_string_compact()
    }

    /// The same mutation for [`bvq_ivm::MutableDb::apply`].
    pub fn to_ivm(self) -> bvq_ivm::Mutation {
        let (rel, tuple) = ("E".to_string(), vec![self.edge.0, self.edge.1]);
        if self.delete {
            bvq_ivm::Mutation::Delete { rel, tuple }
        } else {
            bvq_ivm::Mutation::Insert { rel, tuple }
        }
    }
}

/// A standing query `write_mix` subscribes to during set-up.
#[derive(Clone, Debug)]
pub struct Subscription {
    /// The maintenance strategy the server is expected to pick.
    pub strategy: &'static str,
    /// The subscribed request.
    pub request: Request,
}

impl Subscription {
    /// The `subscribe` wire line.
    pub fn wire_line(&self) -> String {
        let mut fields = vec![
            ("op", Json::str("subscribe")),
            ("db", Json::str(self.request.db.as_str())),
        ];
        match &self.request.body {
            Body::Query(q) => fields.push(("query", Json::str(q.as_str()))),
            Body::Datalog { program, output } => {
                fields.push(("target", Json::str("datalog")));
                fields.push(("program", Json::str(program.as_str())));
                fields.push(("output", Json::str(output.as_str())));
            }
            Body::Eso(_) => unreachable!("ESO has no standing-query semantics"),
        }
        Json::obj(fields).to_string_compact()
    }
}

/// One slot of a [`Order::Blocks`] block: a template instance drawn
/// uniformly from `variants` (pool indices differing in their constant).
#[derive(Clone, Debug)]
pub struct Slot {
    /// Pool indices of the slot's variants.
    pub variants: Vec<usize>,
    /// Whether the slot's request is streamed.
    pub stream: bool,
}

/// How a connection picks its next request.
#[derive(Clone, Debug)]
pub enum Order {
    /// Independent draws from a fixed distribution over the pool
    /// (`warm_mix`'s Zipf).
    Zipf {
        /// Cumulative probabilities by pool index.
        cdf: Vec<f64>,
    },
    /// Seed-shuffled passes over a fixed list of slots, so every
    /// template keeps its exact share of the traffic.
    Blocks {
        /// One block's slots.
        block: Vec<Slot>,
    },
    /// Alternates one request from each of two index sets, uniformly.
    Alternate {
        /// First set (pool indices).
        a: Vec<usize>,
        /// Second set (pool indices).
        b: Vec<usize>,
    },
    /// Single-tuple mutations of `E` on the named database.
    Mutations {
        /// The mutated database.
        db: String,
    },
}

/// One client connection of the closed loop.
#[derive(Clone, Debug)]
pub struct ConnSpec {
    /// How it picks requests.
    pub order: Order,
    /// Seed of its request stream.
    pub seed: u64,
}

/// A server process the workload starts.
#[derive(Clone, Debug)]
pub struct ProcSpec {
    /// Extra `bvq serve` flags (`--addr 127.0.0.1:0` is always added).
    pub args: Vec<String>,
    /// Whether this process registers as a replica of the first one.
    pub replica: bool,
}

/// Everything one workload run needs, generated from the seed.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed everything was generated from.
    pub seed: u64,
    /// Databases loaded into every server process.
    pub dbs: Vec<GenDb>,
    /// Server processes, coordinator first.
    pub procs: Vec<ProcSpec>,
    /// The distinct read requests.
    pub pool: Vec<Request>,
    /// The closed-loop connections.
    pub conns: Vec<ConnSpec>,
    /// Standing queries installed during set-up (on connection 0).
    pub subs: Vec<Subscription>,
    /// Requests sent during set-up, after loading and subscribing:
    /// `(pool index, stream)`.
    pub warmup: Vec<(usize, bool)>,
    /// Mutations touch only edges leaving nodes below this bound.
    pub mutable: u32,
}

/// Mixes a tag into the master seed (splitmix64 finalizer).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The transitive-closure Datalog program.
pub const TC_PROGRAM: &str = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";

/// The transitive closure as an FP² least fixpoint: the same answer as
/// [`TC_PROGRAM`] (Prop 3.2).
pub const FP_TC: &str =
    "(x1, x2) [lfp T(x1, x2) . E(x1, x2) | exists x3. (E(x1, x3) & T(x3, x2))](x1, x2)";

/// Instantiates a template against a database. `c` is the constant of
/// templates that take one.
pub fn template(name: &'static str, db: &str, c: u32) -> Request {
    let q = |text: String| Request::new(name, db, Body::Query(text));
    match name {
        "out" => q(format!("(x1) E({c}, x1)")),
        "out_p" => q(format!("(x1) (E({c}, x1) & P(x1))")),
        "p_or" => q(format!("(x1) (P(x1) | x1 = {c})")),
        "fo_2hop" => q(format!("(x1) exists x2. (E({c}, x2) & E(x2, x1))")),
        "fo_2hop_p" => q(format!(
            "(x1) (P(x1) & exists x2. (E({c}, x2) & E(x2, x1)))"
        )),
        "fo_3hop_p" => q(
            "(x1, x2) (P(x1) & exists x3. (E(x1, x3) & exists x1. (E(x3, x1) & E(x1, x2))))"
                .to_string(),
        ),
        "reach" => q(Query::new(vec![Var(0)], patterns::reach_from_const(c)).to_string()),
        "fp_tc" => q(FP_TC.to_string()),
        "dl_tc" => Request::new(
            name,
            db,
            Body::Datalog {
                program: TC_PROGRAM.to_string(),
                output: "T".to_string(),
            },
        ),
        "fair" => q(Query::sentence(patterns::fairness(Term::Const(c))).to_string()),
        "pfp_reach" => q(Query::new(vec![Var(0)], patterns::pfp_reach(c)).to_string()),
        "chain6" => q(
            "(x1) exists x2. exists x3. exists x4. exists x5. exists x6. \
             ((((E(x1, x2) & E(x2, x3)) & E(x3, x4)) & E(x4, x5)) & E(x5, x6))"
                .to_string(),
        ),
        "eso_2col" => Request::new(
            name,
            db,
            Body::Eso(
                "exists2 C/1. forall x1. forall x2. \
                 (~E(x1, x2) | ((C(x1) & ~C(x2)) | (~C(x1) & C(x2))))"
                    .to_string(),
            ),
        ),
        other => panic!("unknown template `{other}`"),
    }
}

/// The fixed draws every random database relabels: `(n, c, draw)` is
/// the draw of G(n, c/n) by `bvq_workload::graphs` with seed `draw`.
/// Each sits at the medians of the first 25 draws in edge count and
/// transitive-closure size (for n=128: 255 edges, 10 327 closure tuples,
/// where the 25 closures range from 6.6k to 12.6k); a fresh draw per
/// seed would move every closure-bound cost by that much.
const ER128: (usize, u32, u64) = (128, 2, 10);
/// n=120 keeps `warm_mix`'s k=2 cylinders (14 400 points) below the
/// 16 384 points from which the dense kernels spawn threads, so its
/// misses stay cheap; `cold_eval` runs the parallel kernels at n=128.
const ER120: (usize, u32, u64) = (120, 2, 23);
const G10: (usize, u32, u64) = (10, 3, 8);

/// A random graph database: a fixed draw of G(n, c/n), relabeled as
/// [`relabeled`] does.
fn random_graph((n, c, draw): (usize, u32, u64), split: usize, seed: u64) -> Database {
    relabeled(&edges(GraphKind::Sparse(c), n, draw), n, split, seed).0
}

/// A graph database with the nodes of the fixed edge set `e` relabeled
/// by a seeded permutation, and a seeded unary `P` (each node with
/// probability 1/3). The seed changes every label, and so the constants,
/// mutations and reads that land on each part of the graph; it leaves the
/// graph's shape alone. Labels below `split` stay below it, so the part
/// of the graph a label range names keeps its shape too. Also returns the
/// permutation: node `v` of `e` is labeled `label[v]`.
fn relabeled(e: &Relation, n: usize, split: usize, seed: u64) -> (Database, Vec<u32>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut label: Vec<u32> = (0..n as u32).collect();
    let (low, high) = label.split_at_mut(split);
    rng.shuffle(low);
    rng.shuffle(high);
    let e = Relation::from_tuples(
        2,
        e.iter().map(|t| {
            [
                label[t.as_slice()[0] as usize],
                label[t.as_slice()[1] as usize],
            ]
        }),
    );
    let p = Relation::from_tuples(
        1,
        (0..n as u32).filter(|_| rng.gen_ratio(1, 3)).map(|i| [i]),
    );
    let db = Database::builder(n)
        .relation_from("E", e)
        .relation_from("P", p)
        .build();
    (db, label)
}

/// The databases of the engine-bound templates, shared by `cold_eval`,
/// `replica_fanout` and the traced run's template probes.
fn engine_dbs(seed: u64) -> Vec<GenDb> {
    vec![
        GenDb::new("path64", graph_db(GraphKind::Path, 64, sub_seed(seed, 1))),
        GenDb::new("er128", random_graph(ER128, 128, sub_seed(seed, 2))),
        GenDb::new("path32", graph_db(GraphKind::Path, 32, sub_seed(seed, 3))),
        GenDb::new("g10", random_graph(G10, 10, sub_seed(seed, 4))),
    ]
}

fn domain(db: &str) -> u32 {
    match db {
        "path64" => 64,
        "path32" => 32,
        "g10" => 10,
        _ => 128,
    }
}

/// Whether a template takes a constant.
fn takes_constant(template: &str) -> bool {
    matches!(
        template,
        "out" | "out_p" | "p_or" | "fo_2hop" | "fo_2hop_p" | "reach" | "fair" | "pfp_reach"
    )
}

/// The engine databases plus one uncached request per template (indices
/// follow [`TEMPLATES`]), on the database `cold_eval` runs it against.
pub fn probe_requests(seed: u64) -> (Vec<GenDb>, Vec<Request>) {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 10));
    let reqs = TEMPLATES
        .iter()
        .map(|&t| {
            let db = match t {
                "fo_2hop" | "fo_3hop_p" | "reach" => "er128",
                "fair" | "eso_2col" => "path32",
                "chain6" => "g10",
                _ => "path64",
            };
            let mut r = template(t, db, rng.gen_range(0..domain(db)));
            r.no_cache = true;
            r
        })
        .collect();
    (engine_dbs(seed), reqs)
}

/// Generates the plan of one workload.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::WarmMix => warm_mix(seed),
        Workload::ColdEval => blocks(Workload::ColdEval, seed, &COLD_BLOCK, 2),
        Workload::WriteMix => write_mix(seed),
        Workload::ReplicaFanout => blocks(Workload::ReplicaFanout, seed, &REPLICA_BLOCK, 1),
    }
}

fn default_proc() -> Vec<ProcSpec> {
    vec![ProcSpec {
        args: Vec::new(),
        replica: false,
    }]
}

/// `warm_mix`'s Zipf exponent within each template and graph. With 960
/// distinct requests (4 templates × 2 graphs × 120 constants, one per
/// node) and the default 256-entry result cache, about 80% of requests
/// hit: p50 lies deep in the hit path, and p90 in the middle of the
/// cheap misses.
const WARM_ZIPF_S: f64 = 1.25;
/// Requests sent by `warm_mix`'s set-up to bring the cache to its
/// steady state.
const WARM_WARMUP: usize = 2000;

/// Seed of `warm_mix`'s popularity ranks, which are the same under every
/// `--seed`.
const WARM_RANKS: u64 = 0x7761_726d;

/// Every template and graph gets an eighth of `warm_mix`'s traffic, with
/// a Zipf over the graph's nodes within each. A hit costs more the more
/// rows it returns (reach from the start of the path returns 120, from
/// its end 1), so the popularity ranks follow the nodes of the fixed
/// graphs: the seed relabels the nodes, and with them the constants the
/// server sees, but every seed makes the same parts of the graphs
/// popular. Were the seed to rank the requests, it would choose which
/// answers are hot and move p50 with them.
fn warm_mix(seed: u64) -> Plan {
    let (n, c, draw) = ER120;
    let (er, er_label) = relabeled(
        &edges(GraphKind::Sparse(c), n, draw),
        n,
        n,
        sub_seed(seed, 1),
    );
    let (path, path_label) = relabeled(&edges(GraphKind::Path, n, 0), n, n, sub_seed(seed, 2));
    let mut pool = Vec::new();
    let mut weights = Vec::new();
    for (db, label) in [("er", &er_label), ("path", &path_label)] {
        for t in ["reach", "out", "fo_2hop", "fo_2hop_p"] {
            // ranks[v] is the popularity rank of node v.
            let mut ranks: Vec<usize> = (0..n).collect();
            Rng::seed_from_u64(sub_seed(WARM_RANKS, pool.len() as u64)).shuffle(&mut ranks);
            let mut group = vec![0.0; n];
            for (v, &r) in ranks.iter().enumerate() {
                group[label[v] as usize] = 1.0 / ((r + 1) as f64).powf(WARM_ZIPF_S);
            }
            let total: f64 = group.iter().sum();
            weights.extend(group.iter().map(|w| w / total));
            for c in 0..n as u32 {
                pool.push(template(t, db, c));
            }
        }
    }
    let dbs = vec![GenDb::new("er", er), GenDb::new("path", path)];
    let cdf = cumulative(&weights);
    let mut warm = Stream {
        order: Order::Zipf { cdf: cdf.clone() },
        rng: Rng::seed_from_u64(sub_seed(seed, 4)),
        queue: Vec::new(),
        turn: false,
        mutations: None,
    };
    let warmup = (0..WARM_WARMUP)
        .map(|_| match warm.next_request() {
            Next::Read(i, stream) => (i, stream),
            Next::Mutate(_) => unreachable!("warm_mix only reads"),
        })
        .collect();
    Plan {
        workload: Workload::WarmMix,
        seed,
        dbs,
        procs: default_proc(),
        pool,
        conns: (0..2)
            .map(|i| ConnSpec {
                order: Order::Zipf { cdf: cdf.clone() },
                seed: sub_seed(seed, 100 + i),
            })
            .collect(),
        subs: Vec::new(),
        warmup,
        mutable: 0,
    }
}

/// `cold_eval`'s block: `(template, database, slots, streamed slots)`,
/// cheapest first. With 25 slots, p50 is the middle of the `dl_tc` on
/// `path64` band (40–60%) and p90 the middle of the `fp_tc` on `path64`
/// band (84–96%); both run on a path, whose shape the seed does not
/// change. 7 of the 23 row-returning slots stream (30%).
const COLD_BLOCK: [(&str, &str, usize, usize); 12] = [
    ("fo_2hop", "er128", 4, 1),
    ("fo_2hop", "path64", 3, 1),
    ("pfp_reach", "path64", 3, 1),
    ("dl_tc", "path64", 5, 1),
    ("reach", "er128", 1, 0),
    ("eso_2col", "path32", 1, 0),
    ("dl_tc", "er128", 1, 1),
    ("fo_3hop_p", "er128", 1, 1),
    ("fair", "path32", 1, 0),
    ("chain6", "g10", 1, 0),
    ("fp_tc", "path64", 3, 0),
    ("fp_tc", "er128", 1, 1),
];

/// `replica_fanout`'s block, as for [`COLD_BLOCK`]: 20 slots, p50 in the
/// middle of the `dl_tc` on `path32` band (30–70%), p90 inside the
/// `fp_tc` on `path32` band (70–100%). The cheap requests in the first
/// 30% carry the fixed cost of a fan-out; the bands the percentiles
/// read are the certificates whose emission, transfer and checking the
/// question "does verified fan-out beat local evaluation" is about. On
/// `path64` a fan-out took 200 ms on average, and a run on a slow host
/// fell short of the 100 samples p90 needs; `path32` gives hundreds.
const REPLICA_BLOCK: [(&str, &str, usize, usize); 4] = [
    ("fo_2hop", "er128", 2, 0),
    ("reach", "path64", 4, 0),
    ("dl_tc", "path32", 8, 0),
    ("fp_tc", "path32", 6, 0),
];

/// A workload of uncached requests drawn in shuffled blocks.
fn blocks(
    workload: Workload,
    seed: u64,
    spec: &[(&'static str, &'static str, usize, usize)],
    conns: u64,
) -> Plan {
    let dbs = engine_dbs(seed);
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 5));
    let mut pool = Vec::new();
    let mut block = Vec::new();
    let mut warmup = Vec::new();
    for &(t, db, copies, streamed) in spec {
        // Each distinct request costs one interpreted reference per run;
        // `fair`'s takes ~100 ms, so it keeps every eighth constant.
        let constants: Vec<u32> = match t {
            "fair" => (0..domain(db)).step_by(8).collect(),
            t if takes_constant(t) => (0..domain(db)).collect(),
            _ => vec![0],
        };
        let first = pool.len();
        for c in constants {
            let mut r = template(t, db, c);
            r.no_cache = true;
            pool.push(r);
        }
        // Set-up sends one request per entry: every plan is cached and
        // every path (streamed or not) has run once.
        warmup.push((rng.gen_range(first..pool.len()), streamed > 0));
        for i in 0..copies {
            block.push(Slot {
                variants: (first..pool.len()).collect(),
                stream: i < streamed,
            });
        }
    }
    let procs = if workload == Workload::ReplicaFanout {
        let one_thread = || vec!["--threads".to_string(), "1".to_string()];
        let mut replica_args = one_thread();
        // Without a result cache the replica emits a certificate for
        // every request, so emission stays on the measured path.
        replica_args.extend(["--result-cache".to_string(), "0".to_string()]);
        vec![
            ProcSpec {
                args: one_thread(),
                replica: false,
            },
            ProcSpec {
                args: replica_args,
                replica: true,
            },
        ]
    } else {
        default_proc()
    };
    Plan {
        workload,
        seed,
        dbs,
        procs,
        pool,
        conns: (0..conns)
            .map(|i| ConnSpec {
                order: Order::Blocks {
                    block: block.clone(),
                },
                seed: sub_seed(seed, 100 + i),
            })
            .collect(),
        subs: Vec::new(),
        warmup,
        mutable: 0,
    }
}

/// Mutations touch only edges leaving nodes below this bound; the reads
/// of `write_mix` look only at edges leaving nodes at or above it, so
/// their answers stay fixed while the relation they read changes.
const WRITE_MUTABLE: u32 = 64;

fn write_mix(seed: u64) -> Plan {
    let dbs = vec![GenDb::new(
        "er",
        random_graph(ER128, WRITE_MUTABLE as usize, sub_seed(seed, 1)),
    )];
    let mut pool = Vec::new();
    let mut e_reads = Vec::new();
    let mut p_reads = Vec::new();
    for c in WRITE_MUTABLE..128 {
        for t in ["out", "out_p"] {
            pool.push(template(t, "er", c));
            e_reads.push(pool.len() - 1);
        }
        pool.push(template("p_or", "er", c));
        p_reads.push(pool.len() - 1);
    }
    let subs = vec![
        Subscription {
            strategy: "dred",
            request: template("dl_tc", "er", 0),
        },
        Subscription {
            strategy: "rediff",
            request: Request::new(
                "fo_2hop",
                "er",
                Body::Query("(x1, x2) exists x3. (E(x1, x3) & E(x3, x2))".to_string()),
            ),
        },
        Subscription {
            strategy: "rediff",
            request: Request::new("p_only", "er", Body::Query("(x1) P(x1)".to_string())),
        },
    ];
    let warmup = (0..pool.len()).map(|i| (i, false)).collect();
    Plan {
        workload: Workload::WriteMix,
        seed,
        dbs,
        procs: default_proc(),
        pool,
        conns: vec![
            ConnSpec {
                order: Order::Mutations {
                    db: "er".to_string(),
                },
                seed: sub_seed(seed, 100),
            },
            ConnSpec {
                order: Order::Alternate {
                    a: e_reads,
                    b: p_reads,
                },
                seed: sub_seed(seed, 101),
            },
        ],
        subs,
        warmup,
        mutable: WRITE_MUTABLE,
    }
}

fn cumulative(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// A connection's deterministic request stream.
pub struct Stream {
    order: Order,
    rng: Rng,
    queue: Vec<Slot>,
    turn: bool,
    mutations: Option<MutationGen>,
}

/// What a connection sends next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Pool request `index`, streamed when the flag is set.
    Read(usize, bool),
    /// A mutation.
    Mutate(EdgeMutation),
}

impl Stream {
    /// The stream of connection `conn` of `plan` in round `round`: each
    /// round draws its own requests and mutations.
    pub fn new(plan: &Plan, conn: usize, round: u64) -> Stream {
        let spec = &plan.conns[conn];
        let seed = sub_seed(spec.seed, round);
        let mutations = match &spec.order {
            Order::Mutations { db } => {
                let db = &plan
                    .dbs
                    .iter()
                    .find(|d| &d.name == db)
                    .expect("mutated database is generated")
                    .db;
                Some(MutationGen::new(db, plan.mutable, seed))
            }
            _ => None,
        };
        Stream {
            order: spec.order.clone(),
            rng: Rng::seed_from_u64(seed),
            queue: Vec::new(),
            turn: false,
            mutations,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Next {
        match &self.order {
            Order::Zipf { cdf } => {
                let u = self.rng.next_f64();
                let i = cdf.partition_point(|&p| p < u).min(cdf.len() - 1);
                Next::Read(i, false)
            }
            Order::Blocks { block } => {
                if self.queue.is_empty() {
                    self.queue = block.clone();
                    self.rng.shuffle(&mut self.queue);
                }
                let slot = self.queue.pop().expect("blocks are non-empty");
                Next::Read(*self.rng.choose(&slot.variants), slot.stream)
            }
            Order::Alternate { a, b } => {
                self.turn = !self.turn;
                let set = if self.turn { a } else { b };
                Next::Read(*self.rng.choose(set), false)
            }
            Order::Mutations { .. } => Next::Mutate(
                self.mutations
                    .as_mut()
                    .expect("mutation streams carry a generator")
                    .next_mutation(),
            ),
        }
    }
}

/// Edge classes of the mutation stream. A *leaf* edge runs from a
/// source (a node without in-edges, which no mutation gives one) to a
/// sink (a node without out-edges, which no mutation gives one): the only
/// closure tuple it derives is itself, so DRed maintains it as cheaply
/// on delete as on insert. A *core* edge is any other edge leaving a
/// mutable node: deleting one makes DRed over-delete and re-derive much
/// of the closure.
const LEAF: usize = 0;
const CORE: usize = 1;

/// One block of the mutation stream: `(delete, class)`. Two thirds of
/// the mutations are leaf edges, so p50 falls in the band whose cost is
/// the re-evaluated subscription and p90 in the band of core deletes.
/// Inserts and deletes balance per class, so the graph is stationary.
const MUTATION_BLOCK: [(bool, usize); 6] = [
    (false, LEAF),
    (true, LEAF),
    (false, LEAF),
    (true, LEAF),
    (false, CORE),
    (true, CORE),
];

/// Generates single-edge inserts and deletes in shuffled
/// [`MUTATION_BLOCK`]s, tracking the current edge set so that every
/// insert adds a new edge and every delete removes an existing one.
pub struct MutationGen {
    rng: Rng,
    n: u32,
    /// Mutable nodes without in-edges: where leaf edges start.
    sources: Vec<u32>,
    /// Fixed nodes without out-edges: where leaf edges end.
    sinks: Vec<u32>,
    mutable: u32,
    /// Current edges leaving mutable nodes, by class.
    edges: [Vec<(u32, u32)>; 2],
    queue: Vec<(bool, usize)>,
}

impl MutationGen {
    /// A generator over the edges of `db`'s `E` leaving nodes below
    /// `mutable`.
    pub fn new(db: &Database, mutable: u32, seed: u64) -> MutationGen {
        let n = db.domain_size() as u32;
        let all: Vec<(u32, u32)> = db
            .relation_by_name("E")
            .expect("mutated database has E")
            .sorted()
            .iter()
            .map(|t| (t.as_slice()[0], t.as_slice()[1]))
            .collect();
        let (mut out_degree, mut in_degree) = (vec![0usize; n as usize], vec![0usize; n as usize]);
        for &(u, v) in &all {
            out_degree[u as usize] += 1;
            in_degree[v as usize] += 1;
        }
        // On the rare labeling without a true source or sink, the
        // least-connected nodes stand in.
        let least = |nodes: std::ops::Range<u32>, degree: &[usize]| -> Vec<u32> {
            let min = nodes.clone().map(|v| degree[v as usize]).min().unwrap_or(0);
            nodes.filter(|&v| degree[v as usize] == min).collect()
        };
        let sources = least(0..mutable, &in_degree);
        let sinks = least(mutable..n, &out_degree);
        let mut edges = [Vec::new(), Vec::new()];
        for &(u, v) in all.iter().filter(|(u, _)| *u < mutable) {
            let leaf = sources.contains(&u) && sinks.contains(&v);
            edges[if leaf { LEAF } else { CORE }].push((u, v));
        }
        MutationGen {
            rng: Rng::seed_from_u64(seed),
            n,
            sources,
            sinks,
            mutable,
            edges,
            queue: Vec::new(),
        }
    }

    /// The next mutation.
    pub fn next_mutation(&mut self) -> EdgeMutation {
        if self.queue.is_empty() {
            self.queue = MUTATION_BLOCK.to_vec();
            self.rng.shuffle(&mut self.queue);
        }
        let (delete, class) = self.queue.pop().expect("refilled above");
        let leaf = class == LEAF;
        let set = &mut self.edges[class];
        if delete && !set.is_empty() {
            let edge = set.swap_remove(self.rng.gen_range(0..set.len()));
            return EdgeMutation { delete, edge, leaf };
        }
        loop {
            let edge = if leaf {
                (
                    *self.rng.choose(&self.sources),
                    *self.rng.choose(&self.sinks),
                )
            } else {
                (
                    self.rng.gen_range(0..self.mutable),
                    self.rng.gen_range(0..self.n),
                )
            };
            // Core edges never end at a source or a sink, which keeps
            // sources without in-edges and leaf edges cheap.
            let core_ok = !self.sources.contains(&edge.1) && !self.sinks.contains(&edge.1);
            let taken = self.edges.iter().any(|s| s.contains(&edge));
            if !taken && (leaf || core_ok) {
                self.edges[class].push(edge);
                return EdgeMutation {
                    delete: false,
                    edge,
                    leaf,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(plan: &Plan, conn: usize, n: usize) -> Vec<String> {
        let mut s = Stream::new(plan, conn, 0);
        (0..n)
            .map(|_| match s.next_request() {
                Next::Read(i, stream) => plan.pool[i].wire_line(stream),
                Next::Mutate(m) => m.wire_line("er"),
            })
            .collect()
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        for w in Workload::ALL {
            let a = plan(w, DEFAULT_SEED);
            let b = plan(w, DEFAULT_SEED);
            let c = plan(w, DEFAULT_SEED + 1);
            let texts = |p: &Plan| p.dbs.iter().map(|d| d.text.clone()).collect::<Vec<_>>();
            assert_eq!(texts(&a), texts(&b), "{}: db-text differs", w.name());
            assert_ne!(
                texts(&a),
                texts(&c),
                "{}: another seed gives the same dbs",
                w.name()
            );
            for conn in 0..a.conns.len() {
                assert_eq!(
                    sequence(&a, conn, 500),
                    sequence(&b, conn, 500),
                    "{}: request sequence differs",
                    w.name()
                );
                assert_ne!(
                    sequence(&a, conn, 500),
                    sequence(&c, conn, 500),
                    "{}: another seed gives the same requests",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn mutations_stay_effective_and_stationary() {
        let p = plan(Workload::WriteMix, DEFAULT_SEED);
        let mut mirror: std::collections::BTreeSet<(u32, u32)> = p.dbs[0]
            .db
            .relation_by_name("E")
            .unwrap()
            .sorted()
            .iter()
            .map(|t| (t.as_slice()[0], t.as_slice()[1]))
            .collect();
        let start = mirror.len();
        let mut s = Stream::new(&p, 0, 0);
        let mut deletes = 0;
        for _ in 0..3000 {
            let Next::Mutate(m) = s.next_request() else {
                panic!("connection 0 of write_mix mutates")
            };
            assert!(m.edge.0 < p.mutable);
            if m.delete {
                deletes += 1;
                assert!(mirror.remove(&m.edge), "delete of a missing edge");
            } else {
                assert!(mirror.insert(m.edge), "insert of an existing edge");
            }
            assert!(mirror.len().abs_diff(start) <= 4, "edge count drifts");
        }
        assert_eq!(deletes, 1500);
    }

    #[test]
    fn every_request_parses_on_the_server_side() {
        for w in Workload::ALL {
            let p = plan(w, DEFAULT_SEED);
            let subs = p.subs.iter().map(Subscription::wire_line);
            for line in p.pool.iter().map(|r| r.wire_line(true)).chain(subs) {
                bvq_server::protocol::parse_request(&line)
                    .unwrap_or_else(|(_, e)| panic!("{line}: {e:?}"));
            }
        }
    }

    #[test]
    fn block_shares_follow_the_spec() {
        let p = plan(Workload::ColdEval, DEFAULT_SEED);
        let Order::Blocks { block } = &p.conns[0].order else {
            panic!("cold_eval runs in blocks")
        };
        assert_eq!(block.len(), 25);
        // Sentences (`fair`) and ESO reports return no rows.
        let rows = block
            .iter()
            .filter(|s| !matches!(p.pool[s.variants[0]].template, "fair" | "eso_2col"))
            .count();
        assert_eq!(rows, 23);
        assert_eq!(block.iter().filter(|s| s.stream).count(), 7);
        let Order::Blocks { block } = &plan(Workload::ReplicaFanout, DEFAULT_SEED).conns[0].order
        else {
            panic!("replica_fanout runs in blocks")
        };
        assert_eq!(block.len(), 20);
    }
}
