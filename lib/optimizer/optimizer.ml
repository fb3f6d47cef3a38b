open Legodb_relational

type result = { plan : Physical.plan; rows : float; cost : Cost.t }

let dp_limit = 10

(* The join-ordering core below is the mask-indexed fast path: a block
   is resolved against the catalog once, into per-block arrays (each
   alias's table, each predicate's columns, alias bitmask and
   selectivity); per-split questions (connectivity, spanning
   predicates, index probes, subtree widths, subset cardinalities) are
   answered from them, and the DP walks masks by a single ascending
   scan.  Each (mask, split) step compares the join methods by cost
   alone and allocates nothing for a loser; a mask's winner is one flat
   entry (its costs, method, right alias and probe).  The chosen tree
   is walked once: its sub-plans' signatures are interned for the
   query's later blocks, and its [Physical.plan] is built only for a
   caller that keeps plans — the cost engine's entries build none.  It
   must stay bit-identical to the frozen pre-rewrite code in
   test/reference/optimizer_reference.ml — same best plan, same cost
   floats — which pins down every float association order: see the
   comments on [offer] and [optimize_dp].  The differential suite in
   test/test_optimizer_perf.ml holds the two implementations
   together. *)

(* ------------------------------------------------------------------ *)
(* shared sub-plans                                                    *)
(* ------------------------------------------------------------------ *)

(* A sub-plan's signature is an interned int, so identical subtrees
   across blocks (e.g. the actor⋈played⋈director⋈directed core repeated
   per partition) are recognized as shared without building strings.
   A scan's id interns its [access_signature]; a join's interns its
   children's ids (smaller first) with the sorted ids of its condition
   strings (see [cond_id]).  The reference compares canonical strings
   built from exactly these parts — the two child signatures sorted,
   then the sorted condition strings — and, constants being quoted,
   those strings parse back uniquely, so two sub-plans share an id
   exactly when their reference signatures are equal.

   Sub-plan signatures are interned only when a block registers its
   chosen plan, so an [Access] or [Join] present in the table is a
   sub-plan an earlier block read; condition strings are interned the
   first time a lookup or a registration needs them. *)
type part = Access of string | Cond of string | Join of int * int * int list
type shared = (part, int) Hashtbl.t

let shared () = Hashtbl.create 64

let intern sh part =
  match Hashtbl.find_opt sh part with
  | Some id -> id
  | None ->
      let id = Hashtbl.length sh in
      Hashtbl.add sh part id;
      id

(* the id of a sub-plan an earlier block read, else -1 *)
let lookup sh part =
  match Hashtbl.find_opt sh part with Some id -> id | None -> -1

(* ------------------------------------------------------------------ *)
(* per-block context: aliases as integer ids, preds as bitmasks        *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go m n = if m = 0 then n else go (m lsr 1) (n + (m land 1)) in
  go m 0

(* index of the highest set bit; [m > 0] *)
let top_bit m =
  let rec go m n = if m <= 1 then n else go (m lsr 1) (n + 1) in
  go m 0

(* One column of a join predicate, as the index-nested-loops branch
   reads it when that column's alias is the join's right input. *)
type side = {
  s_col : Logical.col;
  s_alias : int;
  s_probe : bool;  (* a column equality, and this column is indexed *)
  s_clustered : bool;  (* the column is the table's key *)
  s_fetch : float;  (* tuples per probe, card / distinct (if [s_probe]) *)
}

(* A predicate spanning two distinct aliases. *)
type jpred = {
  j_pred : Logical.pred;
  j_mask : int;  (* its two alias bits *)
  j_eq : bool;  (* a column equality: a join condition, else an extra *)
  j_lhs : side;
  j_rhs : side;
  mutable j_cond : int;  (* interned condition string, once needed; else -1 *)
}

(* Everything the inner DP loop consults per split, computed once per
   block: an alias's id is its position in the relation list, each
   predicate carries the bitmask of the aliases it mentions and its
   memoized selectivity, each join predicate what the index-nested-
   loops branch needs of its two columns, and each alias its catalog
   table, clamped cardinality, widths, the aliases a join predicate
   links it to and its indexed join columns.  With these, connectivity,
   spanning predicates and index probes are bit tests and array
   reads. *)
type ctx = {
  c_params : Cost.params;
  c_rels : Logical.relation array;  (* the block's relations, by alias id *)
  c_tables : Rschema.table array;  (* catalog table per alias *)
  c_preds : Logical.pred array;  (* block order *)
  c_pmask : int array;  (* alias bitmask of each pred, in block order *)
  c_psel : float array;  (* memoized selectivity of each pred *)
  c_joins : jpred array;  (* the join predicates, in block order *)
  c_adj : int array;  (* per alias, the aliases its join predicates reach *)
  c_probes : int list array;
      (* per alias, the [c_joins] indexes of the equalities whose column
         on it is indexed, in reverse block order *)
  c_card : float array;  (* max(row_floor, card) per alias *)
  c_carry : float array;  (* per-alias carried width (see [entry_of]) *)
  c_rwidth : float array;  (* full row width per alias *)
  c_owidth : float;  (* width of an output row *)
}

exception Ill_formed

(* the id of alias [a], searching the relations from [i] *)
let rec alias_at (rels : Logical.relation array) a i =
  if i = Array.length rels then raise Ill_formed
  else if String.equal rels.(i).alias a then i
  else alias_at rels a (i + 1)

(* one column of a join predicate: [c] on alias [i], [col] resolved *)
let side tables eq i (col : Rschema.column) c =
  let tbl : Rschema.table = tables.(i) in
  let probe = eq && Rschema.has_index tbl col.cname in
  {
    s_col = c;
    s_alias = i;
    s_probe = probe;
    s_clustered = String.equal col.cname tbl.key;
    s_fetch =
      (if probe then tbl.card /. Float.max 1. col.stats.distinct else 0.);
  }

(* The block resolved in one pass: each alias to its catalog table and
   id, each column reference to its catalog column, and from those
   every per-block array of [ctx].  A name that does not resolve, or a
   repeated alias, raises [Ill_formed]; [optimize_block]'s checks then
   say why. *)
let context params cat (block : Logical.block) =
  let rels = Array.of_list block.relations in
  let n = Array.length rels in
  let tables =
    Array.map
      (fun (r : Logical.relation) ->
        match Rschema.find_table cat r.table with
        | Some tbl -> tbl
        | None -> raise Ill_formed)
      rels
  in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      if String.equal rels.(i).alias rels.(j).alias then raise Ill_formed
    done
  done;
  let alias_id a = alias_at rels a 0 in
  (* the columns each alias's block references, for [c_carry] *)
  let needed = Array.make n [] in
  let column i c =
    match Rschema.find_column tables.(i) c with
    | Some col ->
        needed.(i) <- col :: needed.(i);
        col
    | None -> raise Ill_formed
  in
  let preds = Array.of_list block.preds in
  let np = Array.length preds in
  let pmask = Array.make np 0 and psel = Array.make np 0. in
  let joins = ref [] in
  for k = np - 1 downto 0 do
    let p = preds.(k) in
    let la = alias_id (fst p.lhs) in
    let lcol = column la (snd p.lhs) in
    match p.rhs with
    | Logical.O_col ((ra, rc) as rcol_ref) ->
        let rb = alias_id ra in
        let rcol = column rb rc in
        let pm = (1 lsl la) lor (1 lsl rb) in
        pmask.(k) <- pm;
        psel.(k) <- Estimate.selectivity p lcol.stats (Some rcol.stats);
        if la <> rb then begin
          let eq = p.cmp = Logical.C_eq in
          joins :=
            {
              j_pred = p;
              j_mask = pm;
              j_eq = eq;
              j_lhs = side tables eq la lcol p.lhs;
              j_rhs = side tables eq rb rcol rcol_ref;
              j_cond = -1;
            }
            :: !joins
        end
    | Logical.O_const _ | Logical.O_param _ ->
        pmask.(k) <- 1 lsl la;
        psel.(k) <- Estimate.selectivity p lcol.stats None
  done;
  let joins = Array.of_list !joins in
  let rwidth = Array.map Rschema.row_width tables in
  let owidth =
    match block.out with
    | [] -> Array.fold_left ( +. ) 0. rwidth
    | cols ->
        List.fold_left
          (fun w (a, c) ->
            w +. (column (alias_id a) c).Rschema.stats.avg_width)
          0. cols
  in
  let adj = Array.make n 0 and probes = Array.make n [] in
  Array.iteri
    (fun k j ->
      let a = j.j_lhs.s_alias and b = j.j_rhs.s_alias in
      adj.(a) <- adj.(a) lor (1 lsl b);
      adj.(b) <- adj.(b) lor (1 lsl a);
      if j.j_lhs.s_probe then probes.(a) <- k :: probes.(a);
      if j.j_rhs.s_probe then probes.(b) <- k :: probes.(b))
    joins;
  (* Width contributed by one alias to an intermediate result: plans
     project eagerly, so a tuple flowing above a join carries only the
     columns the block still needs (projection columns and predicate
     columns), summed in column-name order. *)
  let carry =
    Array.map
      (fun cols ->
        List.fold_left
          (fun acc (col : Rschema.column) -> acc +. col.stats.avg_width)
          0.
          (List.sort_uniq
             (fun (a : Rschema.column) (b : Rschema.column) ->
               String.compare a.cname b.cname)
             cols))
      needed
  in
  {
    c_params = params;
    c_rels = rels;
    c_tables = tables;
    c_preds = preds;
    c_pmask = pmask;
    c_psel = psel;
    c_joins = joins;
    c_adj = adj;
    c_probes = probes;
    c_card =
      Array.map
        (fun (t : Rschema.table) -> Float.max Estimate.row_floor t.card)
        tables;
    c_carry = carry;
    c_rwidth = rwidth;
    c_owidth = owidth;
  }

(* ------------------------------------------------------------------ *)
(* access paths                                                        *)
(* ------------------------------------------------------------------ *)

type meth = Nl | Index_nl | Hash | Shared_hash

(* A sub-plan as the DP compares it: its estimates, and for a join the
   winning method, right alias and probe, from which [walk] makes the
   plan node once the block's tree is chosen. *)
type entry = {
  e_rows : float;
  e_cost : Cost.t;
  e_mask : int;  (* the subtree's aliases, as a bitmask *)
  e_width : float;  (* subtree width, fold-accumulated in plan order *)
  e_pages : float;  (* pages of its result, as a hash join's input *)
  e_id : int;  (* interned signature if an earlier block read it, else -1 *)
  e_meth : meth;  (* a join's method *)
  e_right : int;  (* a join's right alias; a base access's own alias *)
  e_probe : int;
      (* a join's index-nested-loops probe ([c_joins] index); a base
         access's probed predicate ([c_preds] index); else -1 *)
}

(* the local predicates of alias [i], in block order *)
let filters ctx i =
  let bit = 1 lsl i in
  let rec go k acc =
    if k < 0 then acc
    else
      go (k - 1)
        (if ctx.c_pmask.(k) = bit then ctx.c_preds.(k) :: acc else acc)
  in
  go (Array.length ctx.c_preds - 1) []

(* Signature of a base-table access, for common-subexpression sharing
   across the blocks of one query: a table read with identical local
   predicates in a later block of the same query comes from the buffer
   pool (the multi-query-optimizing Volcano of [16] shares such common
   subexpressions), so it costs CPU but no I/O.  A parameter slot reads
   [?k]: two template scans share only when they read the same slot.
   [probe] is the probed predicate of an index probe, -1 for a
   sequential scan. *)
let access_signature ctx i probe =
  let pred_sig (p : Logical.pred) =
    let op =
      match p.cmp with
      | Logical.C_eq -> "="
      | Logical.C_ne -> "<>"
      | Logical.C_lt -> "<"
      | Logical.C_le -> "<="
      | Logical.C_gt -> ">"
      | Logical.C_ge -> ">="
    in
    let operand = function
      | Logical.O_const v -> Legodb_relational.Rtype.value_to_sql v
      | Logical.O_col (_, c) -> "col:" ^ c
      | Logical.O_param k -> "?" ^ string_of_int k
    in
    snd p.lhs ^ op ^ operand p.rhs
  in
  let access_sig =
    if probe < 0 then "scan" else "probe:" ^ snd ctx.c_preds.(probe).lhs
  in
  String.concat "|"
    (ctx.c_rels.(i).table :: access_sig
    :: List.sort String.compare (List.map pred_sig (filters ctx i)))

(* The entry of relation [i]'s cheapest access path.  A path an earlier
   block read costs CPU but no I/O; while the cache holds nothing, no
   path can have been read, so none is looked up.  Candidates are the
   sequential scan, then an index probe per indexed local equality with
   a constant, in block order; the first cheapest wins. *)
let access_entry sh ctx i =
  let params = ctx.c_params in
  let tbl = ctx.c_tables.(i) in
  let bit = 1 lsl i in
  let np = Array.length ctx.c_preds in
  let sel = ref 1. in
  for k = 0 to np - 1 do
    if ctx.c_pmask.(k) = bit then sel := !sel *. ctx.c_psel.(k)
  done;
  let rows = Float.max Estimate.row_floor (tbl.card *. !sel) in
  let width = ctx.c_rwidth.(i) in
  let tpages = Cost.pages params (tbl.card *. width) in
  let read probe =
    match sh with
    | Some sh when Hashtbl.length sh > 0 ->
        lookup sh (Access (access_signature ctx i probe))
    | _ -> -1
  in
  let cached cpu =
    { Cost.seeks = 0.; pages_read = 0.; pages_written = 0.; cpu }
  in
  let id = read (-1) in
  let best_cost =
    ref
      (if id >= 0 then cached tbl.card
       else
         {
           Cost.seeks = 1.;
           pages_read = tpages;
           pages_written = 0.;
           cpu = tbl.card;
         })
  in
  let best_id = ref id and best_probe = ref (-1) in
  for k = 0 to np - 1 do
    let p = ctx.c_preds.(k) in
    match (p.cmp, p.rhs) with
    | Logical.C_eq, (Logical.O_const _ | Logical.O_param _)
      when ctx.c_pmask.(k) = bit && Rschema.has_index tbl (snd p.lhs) ->
        let matches = Float.max 1. (tbl.card *. ctx.c_psel.(k)) in
        let id = read k in
        let c =
          if id >= 0 then cached matches
          else if String.equal (snd p.lhs) tbl.key then
            {
              Cost.seeks = 3.;
              pages_read = Cost.pages params (matches *. width);
              pages_written = 0.;
              cpu = matches;
            }
          else
            {
              Cost.seeks = 3. +. Float.min matches tpages;
              pages_read = Float.min matches tpages;
              pages_written = 0.;
              cpu = matches;
            }
        in
        if Cost.total params c < Cost.total params !best_cost then begin
          best_cost := c;
          best_id := id;
          best_probe := k
        end
    | _ -> ()
  done;
  let e_width = 0. +. ctx.c_carry.(i) +. 8. in
  {
    e_rows = rows;
    e_cost = !best_cost;
    e_mask = bit;
    e_width;
    e_pages = Cost.pages params (rows *. e_width);
    e_id = !best_id;
    e_meth = Nl;
    e_right = i;
    e_probe = !best_probe;
  }

(* ------------------------------------------------------------------ *)
(* join costing                                                        *)
(* ------------------------------------------------------------------ *)

(* The running best join of one mask (or one greedy step), as plain
   data: the floats sit in a flat float record, so offering a candidate
   stores without allocating, and the winner's entry is built from it
   once. *)
type costs = {
  mutable rows_out : float;  (* rows of the join being costed *)
  mutable b_rows : float;
  mutable b_seeks : float;
  mutable b_read : float;
  mutable b_written : float;
  mutable b_cpu : float;
  mutable b_total : float;
}

type best = {
  f : costs;
  mutable found : bool;
  mutable meth : meth;
  mutable right : int;  (* alias id of the right input *)
  mutable probe : int;  (* [c_joins] index of the index-nested-loops probe *)
}

let new_best () =
  {
    f =
      {
        rows_out = 0.;
        b_rows = 0.;
        b_seeks = 0.;
        b_read = 0.;
        b_written = 0.;
        b_cpu = 0.;
        b_total = 0.;
      };
    found = false;
    meth = Nl;
    right = 0;
    probe = -1;
  }

(* Offer one join method's cost components.  The callers compute each
   component in the association [Cost.add]/[Cost.scale] would, and the
   total here is [Cost.total]'s, so the floats are the reference's;
   the first candidate offered wins a tie, as in the reference's
   [consider]. *)
let[@inline] offer (p : Cost.params) b meth right probe seeks read written cpu =
  let total =
    (p.seek_weight *. seeks)
    +. (p.read_weight *. read)
    +. (p.write_weight *. written)
    +. (p.cpu_weight *. cpu)
  in
  if not (b.found && b.f.b_total <= total) then begin
    b.found <- true;
    b.meth <- meth;
    b.right <- right;
    b.probe <- probe;
    b.f.b_rows <- b.f.rows_out;
    b.f.b_seeks <- seeks;
    b.f.b_read <- read;
    b.f.b_written <- written;
    b.f.b_cpu <- cpu;
    b.f.b_total <- total
  end

let side_on i j = if j.j_lhs.s_alias = i then j.j_lhs else j.j_rhs

(* The index-nested-loops probe of [left] ⋈ [i]: the last spanning
   equality (in block order) whose column on [i] is indexed — the first
   the reference finds in its reversed condition list — or -1. *)
let probe_on ctx i lmask =
  let rec first = function
    | [] -> -1
    | k :: rest ->
        if ctx.c_joins.(k).j_mask land lmask <> 0 then k else first rest
  in
  first ctx.c_probes.(i)

(* a join predicate's condition id: its string, as the reference's
   signature spells it (tables, not aliases, and an equality's two sides
   in string order), interned the first time it is needed *)
let cond_id ctx sh j =
  if j.j_cond < 0 then begin
    let at s = ctx.c_rels.(s.s_alias).table ^ "." ^ snd s.s_col in
    let text =
      if j.j_eq then
        let a = at j.j_lhs and b = at j.j_rhs in
        if a <= b then a ^ "=" ^ b else b ^ "=" ^ a
      else at j.j_lhs
    in
    j.j_cond <- intern sh (Cond text)
  end;
  j.j_cond

(* the signature part of a join of [lid] and [rid] over the predicates
   spanning [lmask] and [rmask] *)
let join_part ctx sh lid rid lmask rmask =
  let ids = ref [] in
  Array.iter
    (fun j ->
      if j.j_mask land lmask <> 0 && j.j_mask land rmask <> 0 then
        ids := cond_id ctx sh j :: !ids)
    ctx.c_joins;
  Join (Int.min lid rid, Int.max lid rid, List.sort Int.compare !ids)

(* The id of [left] ⋈ [right] if an earlier block read it, else -1.
   Every sub-plan of a read plan was registered with it, so only a join
   of two read inputs can have been read; no other is looked up. *)
let read_join ctx sh left right =
  match sh with
  | Some sh when left.e_id >= 0 && right.e_id >= 0 ->
      lookup sh (join_part ctx sh left.e_id right.e_id left.e_mask right.e_mask)
  | _ -> -1

(* Offer every join method of [left] ⋈ [right] (base relation [i]) to
   [b], in the reference's order: nested loops, index nested loops,
   hash, then the shared hash of a subtree an earlier block already
   read.  The rows of the join are [b.f.rows_out].  With
   [connected_only], a split no predicate spans offers nothing. *)
let offer_split ctx sh b ~connected_only left i right =
  let p = ctx.c_params in
  if (not connected_only) || ctx.c_adj.(i) land left.e_mask <> 0 then begin
    let lc = left.e_cost and rc = right.e_cost in
    let lrows = left.e_rows and rrows = right.e_rows in
    let rows_out = b.f.rows_out in
    offer p b Nl i (-1)
      (lc.seeks +. ((lrows *. rc.seeks) +. 0.))
      (lc.pages_read +. ((lrows *. rc.pages_read) +. 0.))
      (lc.pages_written +. ((lrows *. rc.pages_written) +. 0.))
      (lc.cpu +. ((lrows *. rc.cpu) +. (lrows *. rrows)));
    let probe = probe_on ctx i left.e_mask in
    if probe >= 0 then begin
      (* tuples fetched per probe are governed by the join key's
         distinct count — local filters are applied only after the
         fetch *)
      let s = side_on i ctx.c_joins.(probe) in
      let m = s.s_fetch in
      let pp_seeks =
        if s.s_clustered then 1. else 1. +. Float.max 0. (m -. 1.)
      in
      let pp_read =
        if s.s_clustered then
          Float.max 1. (ceil (m *. ctx.c_rwidth.(i) /. p.page_size))
        else Float.max 1. m
      in
      offer p b Index_nl i probe
        (lc.seeks +. ((lrows *. pp_seeks) +. 0.))
        (lc.pages_read +. ((lrows *. pp_read) +. 0.))
        (lc.pages_written +. ((lrows *. 0.) +. 0.))
        (lc.cpu +. ((lrows *. (1. +. m)) +. rows_out))
    end;
    (* hash join: build the right input, probe with the left *)
    let spill = right.e_pages > p.memory_pages in
    let spill_pages = if spill then right.e_pages +. left.e_pages else 0. in
    offer p b Hash i (-1)
      ((lc.seeks +. rc.seeks) +. ((if spill then 2. else 0.) +. 0.))
      ((lc.pages_read +. rc.pages_read) +. (spill_pages +. 0.))
      ((lc.pages_written +. rc.pages_written) +. (spill_pages +. 0.))
      ((lc.cpu +. rc.cpu) +. (0. +. (lrows +. rrows +. rows_out)));
    (* a join subtree already computed by an earlier block of the same
       query is reused from the buffer pool: CPU to re-emit, no I/O *)
    if read_join ctx sh left right >= 0 then
      offer p b Shared_hash i (-1) 0. 0. 0. rows_out
  end

(* The entry of [b]'s winner, whose left input is [left].  Its width
   continues [left]'s fold over the right relation: the reference folds
   [fun w a -> w +. carry a +. 8.] over the joined plan's aliases in
   plan order, and a join's relation list is
   [relations left @ relations right]. *)
let entry_of ctx sh b left right =
  let e_width = left.e_width +. ctx.c_carry.(b.right) +. 8. in
  {
    e_rows = b.f.b_rows;
    e_cost =
      {
        Cost.seeks = b.f.b_seeks;
        pages_read = b.f.b_read;
        pages_written = b.f.b_written;
        cpu = b.f.b_cpu;
      };
    e_mask = left.e_mask lor right.e_mask;
    e_width;
    e_pages = Cost.pages ctx.c_params (b.f.b_rows *. e_width);
    e_id = read_join ctx sh left right;
    e_meth = b.meth;
    e_right = b.right;
    e_probe = b.probe;
  }

(* One walk of the chosen tree over [mask], bottom-up: with a cache,
   every sub-plan's signature is registered (one an earlier block read
   was registered then, with all of its own), and the tree's id is
   returned (-1 without a cache); [scan] and [join] make each node,
   given its children's.  A single bit is a base access; [at] gives the
   entry of a join's mask. *)
let rec walk ctx sh ~scan ~join base at mask =
  if mask land (mask - 1) = 0 then
    let i = top_bit mask in
    let e = base.(i) in
    let id =
      match sh with
      | Some sh when e.e_id < 0 ->
          intern sh (Access (access_signature ctx i e.e_probe))
      | _ -> e.e_id
    in
    (scan ctx e, id)
  else
    let e = at mask in
    let rbit = 1 lsl e.e_right in
    let lmask = mask lxor rbit in
    let left, lid = walk ctx sh ~scan ~join base at lmask in
    let right, rid = walk ctx sh ~scan ~join base at rbit in
    let id =
      match sh with
      | Some sh when e.e_id < 0 ->
          intern sh (join_part ctx sh lid rid lmask rbit)
      | _ -> e.e_id
    in
    (join ctx e lmask left right, id)

(* The plan nodes [walk] makes for {!optimize_block}.  A join's
   conditions are oriented left-first and, with its extras, listed in
   the reverse block order of the reference's consing fold. *)
let scan_node ctx e =
  let i = e.e_right in
  let access =
    if e.e_probe < 0 then Physical.Seq_scan
    else Physical.Index_probe { column = snd ctx.c_preds.(e.e_probe).lhs }
  in
  Physical.Scan { rel = ctx.c_rels.(i); access; filters = filters ctx i }

let join_node ctx e lmask left right =
  let i = e.e_right in
  let rbit = 1 lsl i in
  let conds = ref [] and extra = ref [] in
  Array.iter
    (fun j ->
      if j.j_mask land rbit <> 0 && j.j_mask land lmask <> 0 then
        if j.j_eq then
          let l, r =
            if j.j_lhs.s_alias = i then (j.j_rhs, j.j_lhs)
            else (j.j_lhs, j.j_rhs)
          in
          conds := (l.s_col, r.s_col) :: !conds
        else extra := j.j_pred :: !extra)
    ctx.c_joins;
  let jm =
    match e.e_meth with
    | Nl -> Physical.Nl_join
    | Index_nl ->
        Physical.Index_nl
          { column = snd (side_on i ctx.c_joins.(e.e_probe)).s_col }
    | Hash | Shared_hash -> Physical.Hash_join
  in
  Physical.Join { jm; left; right; conds = !conds; extra = !extra }

(* ------------------------------------------------------------------ *)
(* join ordering                                                       *)
(* ------------------------------------------------------------------ *)

(* The DP table: the winning entry of every mask, a base entry at each
   single bit. *)
let optimize_dp sh ctx base =
  let n = Array.length base in
  let full = (1 lsl n) - 1 in
  let table = Array.make (full + 1) base.(0) in
  Array.iter (fun e -> table.(e.e_mask) <- e) base;
  (* memoized Estimate.subset_rows, split into its two folds.  The
     clamped-card product over a mask's aliases in block order equals
     the product over the mask minus its top bit extended by the top
     alias (a left fold over a list extends over its last element), so
     one ascending pass fills the whole array. *)
  let cards = Array.make (full + 1) 1. in
  for m = 1 to full do
    let top = top_bit m in
    cards.(m) <- cards.(m land lnot (1 lsl top)) *. ctx.c_card.(top)
  done;
  let b = new_best () in
  (* left-deep enumeration: the right input of every join is a single
     base relation, which is where index-nested-loops applies anyway *)
  let splits mask connected_only =
    for i = 0 to n - 1 do
      let r = 1 lsl i in
      if mask land r <> 0 then
        offer_split ctx sh b ~connected_only table.(mask lxor r) i base.(i)
    done
  in
  (* Every strict submask of [mask] is numerically smaller, so a single
     ascending scan visits masks in a valid DP order — the
     popcount-sorted work list of the reference, without materializing
     or sorting 2^n masks. *)
  for mask = 1 to full do
    if popcount mask >= 2 then begin
      (* selectivities multiplied in block pred order, exactly like the
         reference's fold over the predicates whose aliases all fall
         inside the subset *)
      let s = ref 1. in
      for k = 0 to Array.length ctx.c_pmask - 1 do
        let pm = ctx.c_pmask.(k) in
        if pm land mask = pm then s := !s *. ctx.c_psel.(k)
      done;
      b.f.rows_out <- Float.max Estimate.row_floor (cards.(mask) *. !s);
      b.found <- false;
      splits mask true;
      if not b.found then splits mask false;
      table.(mask) <-
        entry_of ctx sh b table.(mask lxor (1 lsl b.right)) base.(b.right)
    end
  done;
  table

let optimize_greedy sh ctx base =
  (* left-deep: start from the cheapest entry, repeatedly add the
     relation that yields the cheapest join, preferring connected ones.
     One chain of [offer]s over every (relation, method) keeps the first
     cheapest, as the reference's per-relation best-of followed by a
     strict comparison across relations does.
     Cardinalities are [Estimate.subset_rows]'s, with the clamped cards
     multiplied in plan order, not block order, as the reference
     multiplies the greedy accumulator's aliases.  Returns the entry of
     each mask the chain joined. *)
  let params = ctx.c_params in
  let subset_rows ids mask =
    let cards = List.fold_left (fun acc i -> acc *. ctx.c_card.(i)) 1. ids in
    let s = ref 1. in
    for k = 0 to Array.length ctx.c_pmask - 1 do
      let pm = ctx.c_pmask.(k) in
      if pm land mask = pm then s := !s *. ctx.c_psel.(k)
    done;
    Float.max Estimate.row_floor (cards *. !s)
  in
  let by_cost =
    List.sort
      (fun a b ->
        Float.compare (Cost.total params a.e_cost) (Cost.total params b.e_cost))
      (Array.to_list base)
  in
  let b = new_best () in
  let rec go chain acc_ids remaining =
    match remaining with
    | [] -> chain
    | _ ->
        let acc = List.hd chain in
        let splits connected_only =
          List.iter
            (fun r ->
              b.f.rows_out <-
                subset_rows (acc_ids @ [ r.e_right ]) (acc.e_mask lor r.e_mask);
              offer_split ctx sh b ~connected_only acc r.e_right r)
            remaining
        in
        b.found <- false;
        splits true;
        if not b.found then splits false;
        let r = base.(b.right) in
        go
          (entry_of ctx sh b acc r :: chain)
          (acc_ids @ [ b.right ])
          (List.filter (fun x -> x != r) remaining)
  in
  let chain =
    match by_cost with
    | [] -> invalid_arg "optimize_greedy: empty block"
    | first :: rest -> go [ first ] [ first.e_right ] rest
  in
  fun mask -> List.find (fun e -> e.e_mask = mask) chain

(* A block [context] could not resolve raises [Logical.block_wellformed]'s
   errors, then [Estimate.env]'s unknown table, as the frozen reference
   raises them. *)
let ill_formed cat block =
  (match Logical.block_wellformed cat block with
  | Ok () -> ()
  | Error es -> invalid_arg ("optimize_block: " ^ String.concat "; " es));
  ignore (Estimate.env cat block : Estimate.env);
  (* every failure of [context] is one of the two checks above *)
  assert false

(* The block's chosen tree: its context, base entries and the entry of
   each joined mask, with its rows and cost, result output included. *)
let choose params shared cat (block : Logical.block) =
  if block.relations = [] then invalid_arg "optimize_block: no relations";
  let ctx =
    try context params cat block with Ill_formed -> ill_formed cat block
  in
  let base = Array.init (Array.length ctx.c_rels) (access_entry shared ctx) in
  let n = Array.length base in
  let at =
    if n = 1 then fun _ -> base.(0)
    else if n <= dp_limit then Array.get (optimize_dp shared ctx base)
    else optimize_greedy shared ctx base
  in
  let joined = at ((1 lsl n) - 1) in
  (* result output: write the projected rows out *)
  let output_cost =
    {
      Cost.seeks = 0.;
      pages_read = 0.;
      pages_written = Cost.pages params (joined.e_rows *. ctx.c_owidth);
      cpu = joined.e_rows;
    }
  in
  (ctx, base, at, joined, Cost.add joined.e_cost output_cost)

let optimize_block ?(params = Cost.default_params) ?shared cat block =
  let ctx, base, at, joined, cost = choose params shared cat block in
  let plan, _ =
    walk ctx shared ~scan:scan_node ~join:join_node base at joined.e_mask
  in
  { plan; rows = joined.e_rows; cost }

(* The rows and cost of {!optimize_block}, with no plan built: with
   [~register], the chosen tree's sub-plans are registered in [shared]
   as {!optimize_block} registers them, for the blocks after it. *)
let block_cost params shared ~register cat block =
  let ctx, base, at, joined, cost = choose params (Some shared) cat block in
  if register then
    ignore
      (walk ctx (Some shared)
         ~scan:(fun _ _ -> ())
         ~join:(fun _ _ _ () () -> ())
         base at joined.e_mask
        : unit * int);
  (joined.e_rows, cost)

let query_cost ?(params = Cost.default_params) cat (q : Logical.query) =
  (* the blocks of one query share base-table accesses (outer-union
     decomposition reads the same tables repeatedly) *)
  let shared = shared () in
  let results = List.map (optimize_block ~params ~shared cat) q.blocks in
  let total =
    List.fold_left (fun t r -> t +. Cost.total params r.cost) 0. results
  in
  (results, total)

(* [query_cost]'s total, its blocks costed in order; the last registers
   nothing, as no block after it reads the cache *)
let query_scalar_cost ?(params = Cost.default_params) cat (q : Logical.query) =
  let shared = shared () in
  let rec go total = function
    | [] -> total
    | block :: rest ->
        let _, cost =
          block_cost params shared ~register:(rest <> []) cat block
        in
        go (total +. Cost.total params cost) rest
  in
  go 0. q.blocks

let workload_cost ?params cat workload =
  List.fold_left
    (fun acc (q, weight) -> acc +. (weight *. query_scalar_cost ?params cat q))
    0. workload

(* ------------------------------------------------------------------ *)
(* write costing                                                       *)
(* ------------------------------------------------------------------ *)

let write_cost ?(params = Cost.default_params) cat (u : Logical.update) =
  let shared = shared () in
  let rec go acc = function
    | [] -> acc
    | (w : Logical.write) :: rest ->
        let tbl = Rschema.table cat w.w_table in
        let rows, locate_cost =
          match w.w_locate with
          | Some block ->
              let rows, cost =
                block_cost params shared
                  ~register:
                    (List.exists
                       (fun (w : Logical.write) -> Option.is_some w.w_locate)
                       rest)
                  cat block
              in
              (rows *. w.w_per_row, Cost.total params cost)
          | None -> (w.w_per_row, 0.)
        in
        let width = Rschema.row_width tbl in
        let indexes = float_of_int (List.length tbl.Rschema.indexed) in
        let per_row =
          match w.w_kind with
          | Logical.W_insert | Logical.W_delete ->
              (* the row's page plus maintenance of every index *)
              {
                Cost.seeks = 1. +. indexes;
                pages_read = 0.;
                pages_written = Float.max 1. (width /. params.Cost.page_size);
                cpu = 1. +. indexes;
              }
          | Logical.W_update ->
              (* rewrite the row in place; indexes on the changed column
                 only — approximated as one *)
              {
                Cost.seeks = 2.;
                pages_read = 0.;
                pages_written = 1.;
                cpu = 2.;
              }
        in
        go
          (acc +. locate_cost +. Cost.total params (Cost.scale rows per_row))
          rest
  in
  go 0. u.writes
