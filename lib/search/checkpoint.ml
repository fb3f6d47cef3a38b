(* Snapshot codec for the anytime search.  Everything is stored as
   data (terms, strings, numbers) in a portable line/length-prefixed
   text format — no Marshal, no closures — so a snapshot written under
   one OCaml version resumes under another, and a flipped bit anywhere
   in the payload is caught by the CRC before decoding begins.  Floats
   travel as %h hex literals: costs, statistics annotations, and timer
   totals round-trip bit-exactly, which is what lets a resumed search
   agree bit for bit with an uninterrupted one.

   The generic layer — CRC-32, token writers/readers, header framing,
   atomic writes — lives in the shared Wire module (lib/core), which
   the storage snapshot and the query server's WAL reuse; this file
   keeps only the search-specific term codec.  Internally everything
   raises Wire.Corrupt; the decode/load boundary wraps it into this
   module's Corrupt so callers (and the CLI's exit-7 path) are
   unchanged. *)

open Legodb_xtype
open Legodb_transform
module Wire = Legodb_wire.Wire

exception Corrupt of string

let corrupt fmt = Wire.corrupt fmt

type failure = {
  f_iteration : int;
  f_step : Space.step;
  f_stage : string;
  f_class : string;
  f_message : string;
}

type trace_entry = {
  iteration : int;
  cost : float;
  step : Space.step option;
  tables : int;
  engine : Cost_engine.snapshot;
  failures : failure list;
}

type point =
  | Greedy of { g_schema : Xschema.t; g_cost : float; g_threshold : float }
  | Beam of {
      b_frontier : (Xschema.t * float) list;
      b_best_schema : Xschema.t;
      b_best_cost : float;
      b_seen : string list;
      b_barren : int;
      b_width : int;
      b_patience : int;
    }

type state = {
  strategy : string;
  kinds : Space.kind list;
  max_iterations : int;
  iteration : int;
  evaluations : int;
  trace : trace_entry list;
  failures : failure list;
  point : point;
}

(* ------------------------------------------------------------------ *)
(* payload writers (generic layer from Wire)                           *)
(* ------------------------------------------------------------------ *)

let w_line = Wire.w_line
let w_int = Wire.w_int
let w_float = Wire.w_float
let w_str = Wire.w_str
let w_list = Wire.w_list
let w_opt = Wire.w_opt

let w_bound b = function
  | Xtype.Unbounded -> w_line b "*"
  | Xtype.Bounded n -> w_int b n

let w_label b = function
  | Label.Name s ->
      w_line b "n";
      w_str b s
  | Label.Any -> w_line b "a"
  | Label.Any_except l ->
      w_line b "x";
      w_list b w_str l

let w_scalar_stats b (st : Xtype.scalar_stats) =
  w_int b st.Xtype.width;
  w_opt b w_int st.Xtype.s_min;
  w_opt b w_int st.Xtype.s_max;
  w_opt b w_int st.Xtype.distinct

let w_ann b (ann : Xtype.ann) =
  w_opt b w_float ann.Xtype.count;
  w_list b
    (fun b (l, c) ->
      w_str b l;
      w_float b c)
    ann.Xtype.labels

let rec w_type b = function
  | Xtype.Empty -> w_line b "e"
  | Xtype.Scalar (k, st) ->
      w_line b "s";
      w_line b (match k with Xtype.String_t -> "str" | Xtype.Integer_t -> "int");
      w_opt b w_scalar_stats st
  | Xtype.Attr (n, t) ->
      w_line b "a";
      w_str b n;
      w_type b t
  | Xtype.Elem e ->
      w_line b "l";
      w_label b e.Xtype.label;
      w_ann b e.Xtype.ann;
      w_type b e.Xtype.content
  | Xtype.Seq ts ->
      w_line b "q";
      w_list b w_type ts
  | Xtype.Choice ts ->
      w_line b "c";
      w_list b w_type ts
  | Xtype.Rep (t, o) ->
      w_line b "r";
      w_int b o.Xtype.lo;
      w_bound b o.Xtype.hi;
      w_type b t
  | Xtype.Ref n ->
      w_line b "f";
      w_str b n

let w_schema b s =
  w_str b (Xschema.root s);
  w_list b
    (fun b (d : Xschema.defn) ->
      w_str b d.Xschema.name;
      w_type b d.Xschema.body)
    (Xschema.defs s)

let kind_name = function
  | Space.K_inline -> "inline"
  | Space.K_outline -> "outline"
  | Space.K_union_dist -> "union_dist"
  | Space.K_union_factor -> "union_factor"
  | Space.K_rep_split -> "rep_split"
  | Space.K_rep_merge -> "rep_merge"
  | Space.K_wildcard -> "wildcard"
  | Space.K_union_opts -> "union_opts"

let kind_of_name = function
  | "inline" -> Space.K_inline
  | "outline" -> Space.K_outline
  | "union_dist" -> Space.K_union_dist
  | "union_factor" -> Space.K_union_factor
  | "rep_split" -> Space.K_rep_split
  | "rep_merge" -> Space.K_rep_merge
  | "wildcard" -> Space.K_wildcard
  | "union_opts" -> Space.K_union_opts
  | k -> corrupt "unknown transformation kind %S" k

let w_loc b (loc : Xtype.loc) = w_list b w_int loc

let w_step b = function
  | Space.Inline { tname; loc; target } ->
      w_line b "inline";
      w_str b tname;
      w_loc b loc;
      w_str b target
  | Space.Outline { tname; loc; tag } ->
      w_line b "outline";
      w_str b tname;
      w_loc b loc;
      w_str b tag
  | Space.Union_dist { tname; loc } ->
      w_line b "union_dist";
      w_str b tname;
      w_loc b loc
  | Space.Union_factor { tname; loc } ->
      w_line b "union_factor";
      w_str b tname;
      w_loc b loc
  | Space.Rep_split { tname; loc; target } ->
      w_line b "rep_split";
      w_str b tname;
      w_loc b loc;
      w_str b target
  | Space.Rep_merge { tname; loc } ->
      w_line b "rep_merge";
      w_str b tname;
      w_loc b loc
  | Space.Wildcard { tname; loc; tag } ->
      w_line b "wildcard";
      w_str b tname;
      w_loc b loc;
      w_str b tag
  | Space.Union_opts { tname; loc } ->
      w_line b "union_opts";
      w_str b tname;
      w_loc b loc

let w_snapshot b (s : Cost_engine.snapshot) =
  w_int b s.Cost_engine.evaluations;
  w_int b s.Cost_engine.hits;
  w_int b s.Cost_engine.misses;
  w_int b s.Cost_engine.faults;
  w_float b s.Cost_engine.t_mapping;
  w_float b s.Cost_engine.t_translate;
  w_float b s.Cost_engine.t_optimize

let w_failure b (f : failure) =
  w_int b f.f_iteration;
  w_step b f.f_step;
  w_str b f.f_stage;
  w_str b f.f_class;
  w_str b f.f_message

let w_entry b (e : trace_entry) =
  w_int b e.iteration;
  w_float b e.cost;
  w_opt b w_step e.step;
  w_int b e.tables;
  w_snapshot b e.engine;
  w_list b w_failure e.failures

let w_point b = function
  | Greedy g ->
      w_line b "greedy";
      w_schema b g.g_schema;
      w_float b g.g_cost;
      w_float b g.g_threshold
  | Beam bm ->
      w_line b "beam";
      w_list b
        (fun b (s, c) ->
          w_schema b s;
          w_float b c)
        bm.b_frontier;
      w_schema b bm.b_best_schema;
      w_float b bm.b_best_cost;
      w_list b w_str bm.b_seen;
      w_int b bm.b_barren;
      w_int b bm.b_width;
      w_int b bm.b_patience

let w_state b st =
  w_str b st.strategy;
  w_list b (fun b k -> w_line b (kind_name k)) st.kinds;
  w_int b st.max_iterations;
  w_int b st.iteration;
  w_int b st.evaluations;
  w_list b w_entry st.trace;
  w_list b w_failure st.failures;
  w_point b st.point

(* ------------------------------------------------------------------ *)
(* payload readers (generic layer from Wire)                           *)
(* ------------------------------------------------------------------ *)

let r_line = Wire.r_line
let r_int = Wire.r_int
let r_float = Wire.r_float
let r_str = Wire.r_str
let r_list = Wire.r_list
let r_opt = Wire.r_opt

let r_bound cur =
  match r_line cur with
  | "*" -> Xtype.Unbounded
  | s -> (
      match int_of_string_opt s with
      | Some n -> Xtype.Bounded n
      | None -> corrupt "malformed payload: expected a bound, got %S" s)

let r_label cur =
  match r_line cur with
  | "n" -> Label.Name (r_str cur)
  | "a" -> Label.Any
  | "x" -> Label.Any_except (r_list cur r_str)
  | s -> corrupt "malformed payload: unknown label tag %S" s

let r_scalar_stats cur =
  let width = r_int cur in
  let s_min = r_opt cur r_int in
  let s_max = r_opt cur r_int in
  let distinct = r_opt cur r_int in
  { Xtype.width; s_min; s_max; distinct }

let r_ann cur =
  let count = r_opt cur r_float in
  let labels =
    r_list cur (fun cur ->
        let l = r_str cur in
        let c = r_float cur in
        (l, c))
  in
  { Xtype.count; labels }

(* raw constructors, not the smart ones: the encoded value already
   satisfies the AST invariants, and re-normalizing could perturb the
   exact term the search was holding *)
let rec r_type cur =
  match r_line cur with
  | "e" -> Xtype.Empty
  | "s" ->
      let kind =
        match r_line cur with
        | "str" -> Xtype.String_t
        | "int" -> Xtype.Integer_t
        | s -> corrupt "malformed payload: unknown scalar kind %S" s
      in
      Xtype.Scalar (kind, r_opt cur r_scalar_stats)
  | "a" ->
      let n = r_str cur in
      Xtype.Attr (n, r_type cur)
  | "l" ->
      let label = r_label cur in
      let ann = r_ann cur in
      let content = r_type cur in
      Xtype.Elem { Xtype.label; content; ann }
  | "q" -> Xtype.Seq (r_list cur r_type)
  | "c" -> Xtype.Choice (r_list cur r_type)
  | "r" ->
      let lo = r_int cur in
      let hi = r_bound cur in
      Xtype.Rep (r_type cur, { Xtype.lo; hi })
  | "f" -> Xtype.Ref (r_str cur)
  | s -> corrupt "malformed payload: unknown type tag %S" s

let r_schema cur =
  let root = r_str cur in
  let defs =
    r_list cur (fun cur ->
        let name = r_str cur in
        let body = r_type cur in
        { Xschema.name; body })
  in
  match Xschema.make ~root defs with
  | s -> s
  | exception Invalid_argument m -> corrupt "malformed payload: %s" m

let r_loc cur : Xtype.loc = r_list cur r_int

let r_step cur =
  let tag = r_line cur in
  let tname = r_str cur in
  let loc = r_loc cur in
  match tag with
  | "inline" -> Space.Inline { tname; loc; target = r_str cur }
  | "outline" -> Space.Outline { tname; loc; tag = r_str cur }
  | "union_dist" -> Space.Union_dist { tname; loc }
  | "union_factor" -> Space.Union_factor { tname; loc }
  | "rep_split" -> Space.Rep_split { tname; loc; target = r_str cur }
  | "rep_merge" -> Space.Rep_merge { tname; loc }
  | "wildcard" -> Space.Wildcard { tname; loc; tag = r_str cur }
  | "union_opts" -> Space.Union_opts { tname; loc }
  | s -> corrupt "malformed payload: unknown step tag %S" s

let r_snapshot cur : Cost_engine.snapshot =
  let evaluations = r_int cur in
  let hits = r_int cur in
  let misses = r_int cur in
  let faults = r_int cur in
  let t_mapping = r_float cur in
  let t_translate = r_float cur in
  let t_optimize = r_float cur in
  {
    Cost_engine.evaluations;
    hits;
    misses;
    faults;
    t_mapping;
    t_translate;
    t_optimize;
  }

let r_failure cur =
  let f_iteration = r_int cur in
  let f_step = r_step cur in
  let f_stage = r_str cur in
  let f_class = r_str cur in
  let f_message = r_str cur in
  { f_iteration; f_step; f_stage; f_class; f_message }

let r_entry cur =
  let iteration = r_int cur in
  let cost = r_float cur in
  let step = r_opt cur r_step in
  let tables = r_int cur in
  let engine = r_snapshot cur in
  let failures = r_list cur r_failure in
  { iteration; cost; step; tables; engine; failures }

let r_point cur =
  match r_line cur with
  | "greedy" ->
      let g_schema = r_schema cur in
      let g_cost = r_float cur in
      let g_threshold = r_float cur in
      (* the bound {!Search.greedy} enforces: outside it the descent
         would accept neighbours that cost more *)
      if not (g_threshold >= 0. && g_threshold < 1.) then
        corrupt "malformed payload: threshold %h is outside [0, 1)"
          g_threshold;
      Greedy { g_schema; g_cost; g_threshold }
  | "beam" ->
      let b_frontier =
        r_list cur (fun cur ->
            let s = r_schema cur in
            let c = r_float cur in
            (s, c))
      in
      let b_best_schema = r_schema cur in
      let b_best_cost = r_float cur in
      let b_seen = r_list cur r_str in
      let b_barren = r_int cur in
      let b_width = r_int cur in
      let b_patience = r_int cur in
      (* the bounds {!Search.beam} enforces: below them the beam would
         keep nothing or stop before its first level *)
      if b_width < 1 then
        corrupt "malformed payload: beam width %d is below 1" b_width;
      if b_patience < 1 then
        corrupt "malformed payload: beam patience %d is below 1" b_patience;
      Beam
        {
          b_frontier;
          b_best_schema;
          b_best_cost;
          b_seen;
          b_barren;
          b_width;
          b_patience;
        }
  | s -> corrupt "malformed payload: unknown continuation point %S" s

let r_state cur =
  let strategy = r_str cur in
  let kinds = r_list cur (fun cur -> kind_of_name (r_line cur)) in
  let max_iterations = r_int cur in
  let iteration = r_int cur in
  let evaluations = r_int cur in
  let trace = r_list cur r_entry in
  let failures = r_list cur r_failure in
  let point = r_point cur in
  if cur.Wire.pos <> String.length cur.Wire.buf then
    corrupt "malformed payload: %d trailing bytes"
      (String.length cur.Wire.buf - cur.Wire.pos);
  {
    strategy;
    kinds;
    max_iterations;
    iteration;
    evaluations;
    trace;
    failures;
    point;
  }

(* ------------------------------------------------------------------ *)
(* file image: header + checksummed payload                            *)
(* ------------------------------------------------------------------ *)

let magic = "LEGODB-CKPT"
let version = 3

(* the search-term writers/readers above raise Wire.Corrupt; the public
   boundary rewraps it so callers keep matching Checkpoint.Corrupt *)
let wrap_corrupt f x =
  try f x with Wire.Corrupt m -> raise (Corrupt m)

let encode st =
  let b = Buffer.create 4096 in
  w_state b st;
  Wire.frame ~magic ~version (Buffer.contents b)

let decode image =
  wrap_corrupt
    (fun image ->
      let body = Wire.unframe ~magic ~version ~kind:"checkpoint" image in
      r_state (Wire.cursor body))
    image

(* schema codec, exported for the storage snapshot (lib/serve/wal.ml):
   raises Wire.Corrupt like the rest of the Wire layer *)
let write_schema = w_schema
let read_schema = r_schema

let save ~path st = Wire.write_atomic ~path (encode st)
let load path = decode (Wire.read_file path)
