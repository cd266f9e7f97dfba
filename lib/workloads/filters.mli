(** The six DSP benchmark DFGs of the paper's evaluation (§7).

    The paper names the benchmarks but does not print their netlists; these
    graphs reproduce the properties the algorithms are sensitive to — size,
    operation mix, tree vs general-DAG structure, and the presence of
    duplicated (common) nodes — following the standard high-level-synthesis
    versions of each filter (see DESIGN.md §5).

    Tree benchmarks ({!lattice}, {!volterra}) are trees in one orientation
    of the DAG portion; general DFGs ({!diffeq}, {!rls_laguerre},
    {!elliptic}) have reconvergent fan-out and therefore duplicated nodes
    under {!Dfg.Expand}. *)

(** [lattice ~stages] — an n-stage lattice filter: a tree (every node has
    one zero-delay parent) of [4*stages + 1] nodes with one feedback delay
    edge per stage. The paper uses [stages = 4] and [stages = 8]. *)
val lattice : stages:int -> Dfg.Graph.t

(** Second-order Volterra filter: 14 multipliers feeding an adder reduction
    (27 nodes); a tree in the transposed orientation. *)
val volterra : unit -> Dfg.Graph.t

(** The HAL differential-equation solver (y'' + 3xy' + 3y = 0, Euler step):
    the classic 11-operation benchmark, a general DAG with shared
    multiplies. *)
val diffeq : unit -> Dfg.Graph.t

(** RLS-Laguerre lattice filter: 19 nodes, lightly reconvergent. *)
val rls_laguerre : unit -> Dfg.Graph.t

(** Fifth-order elliptic wave filter: 34 nodes (26 additions, 8
    multiplications), heavily reconvergent — the paper's hardest instance
    for [DFG_Assign_Once]. *)
val elliptic : unit -> Dfg.Graph.t

(** [fir ~taps] — an n-tap direct-form FIR filter: [taps] coefficient
    multipliers reduced by an adder chain; a tree (in the transposed
    orientation), [2*taps - 1] nodes, feed-forward. Extension benchmark. *)
val fir : taps:int -> Dfg.Graph.t

(** [iir_biquad_cascade ~sections] — second-order IIR sections in cascade,
    each with 4 multipliers and 2 adders around two feedback registers
    ([6*sections + 1] nodes). Every section's state adder joins the carried
    signal with two coefficient multipliers and its output adder
    reconverges two more, so duplication compounds along the cascade — the
    heaviest expansion stress-test in the suite. Extension benchmark. *)
val iir_biquad_cascade : sections:int -> Dfg.Graph.t

(** [fft_stage ~butterflies] — one radix-2 FFT stage: each butterfly is a
    twiddle multiply feeding an add and a subtract (fan-out 2); feed-forward,
    tree in the forward orientation. Extension benchmark. *)
val fft_stage : butterflies:int -> Dfg.Graph.t

(** All six benchmarks in the paper's Table order, with their names. *)
val all : unit -> (string * Dfg.Graph.t) list

(** The paper's six plus the extension benchmarks. *)
val extended : unit -> (string * Dfg.Graph.t) list

(** The paper's Table-1 subset (trees) and Table-2 subset (general DFGs). *)
val trees : unit -> (string * Dfg.Graph.t) list

val dags : unit -> (string * Dfg.Graph.t) list

(** [lookup name ~seed] resolves a name from {!extended} to its graph and
    a fresh seeded {!Tables.for_graph} table over
    {!Fulib.Library.standard3}; [None] for an unknown name. This is how
    the serving front ends resolve ["benchmark"] request fields.

    The graphs are built and {!Dfg.Graph.preheat}ed once, at module
    initialisation, and shared: repeated calls return the physically same
    graph, which is safe to hand to any domain. Only the table is built
    per call. *)
val lookup : string -> seed:int -> (Dfg.Graph.t * Fulib.Table.t) option
