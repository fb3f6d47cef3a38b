(* Shared helpers for the test suites. *)

open Legodb

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

(* Generate a random document valid for a schema: choices pick random
   branches, repetitions draw a small count within bounds, scalars get
   fresh values.  Wildcards draw from a fixed tag pool disjoint from
   ordinary tags. *)
let doc_of_schema ?(rng = Random.State.make [| 7 |]) ?(rep_max = 3) schema =
  let counter = ref 0 in
  let fresh_string () =
    incr counter;
    Printf.sprintf "s%d" !counter
  in
  let fresh_int () =
    incr counter;
    string_of_int (1000 + !counter)
  in
  let wild_tags = [| "w_alpha"; "w_beta"; "w_gamma" |] in
  let scalar_text = function
    | Xtype.String_t -> fresh_string ()
    | Xtype.Integer_t -> fresh_int ()
  in
  let rec gen depth t : (string * string) list * Xml.t list * string option =
    (* attrs, child nodes, text content *)
    match t with
    | Xtype.Empty -> ([], [], None)
    | Xtype.Scalar (k, _) -> ([], [], Some (scalar_text k))
    | Xtype.Attr (n, content) ->
        let kind =
          match content with Xtype.Scalar (k, _) -> k | _ -> Xtype.String_t
        in
        ([ (n, scalar_text kind) ], [], None)
    | Xtype.Elem e ->
        let tag =
          match e.label with
          | Label.Name n -> n
          | Label.Any -> wild_tags.(Random.State.int rng (Array.length wild_tags))
          | Label.Any_except excl ->
              let candidates =
                Array.to_list wild_tags
                |> List.filter (fun t -> not (List.mem t excl))
              in
              (match candidates with c :: _ -> c | [] -> "w_other")
        in
        let attrs, kids, text = gen depth e.content in
        let children =
          match text with Some s -> kids @ [ Xml.Text s ] | None -> kids
        in
        ([], [ Xml.Element (tag, attrs, children) ], None)
    | Xtype.Seq ts ->
        List.fold_left
          (fun (attrs, kids, text) u ->
            let a, k, t = gen depth u in
            (attrs @ a, kids @ k, match text with Some _ -> text | None -> t))
          ([], [], None) ts
    | Xtype.Choice ts ->
        let nullable_first =
          if depth > 6 then
            match List.find_opt Xtype.nullable ts with
            | Some t -> t
            | None -> List.nth ts (Random.State.int rng (List.length ts))
          else List.nth ts (Random.State.int rng (List.length ts))
        in
        gen depth nullable_first
    | Xtype.Rep (u, o) ->
        let hi =
          match o.Xtype.hi with
          | Xtype.Bounded h -> min h (o.Xtype.lo + rep_max)
          | Xtype.Unbounded -> o.Xtype.lo + rep_max
        in
        let hi = if depth > 6 then o.Xtype.lo else hi in
        let n = o.Xtype.lo + Random.State.int rng (max 1 (hi - o.Xtype.lo + 1)) in
        let acc = ref ([], [], None) in
        for _ = 1 to n do
          let a, k, t = gen depth u in
          let aa, kk, tt = !acc in
          acc := (aa @ a, kk @ k, match tt with Some _ -> tt | None -> t)
        done;
        !acc
    | Xtype.Ref n -> gen (depth + 1) (Xschema.find schema n)
  in
  match gen 0 (Xschema.find schema (Xschema.root schema)) with
  | _, [ doc ], _ -> doc
  | _ -> failwith "doc_of_schema: root is not a single element"

(* A tiny bookstore-style schema used by unit tests (smaller than IMDB). *)
let books_schema =
  let book =
    Xtype.named_elem "book"
      (Xtype.seq
         [
           Xtype.attr "isbn" Xtype.string_;
           Xtype.named_elem "title" Xtype.string_;
           Xtype.named_elem "price" Xtype.integer;
           Xtype.rep (Xtype.ref_ "Author") Xtype.plus;
           Xtype.optional (Xtype.named_elem "blurb" Xtype.string_);
         ])
  in
  let author =
    Xtype.named_elem "author"
      (Xtype.seq
         [ Xtype.named_elem "name" Xtype.string_ ])
  in
  let store =
    Xtype.named_elem "store" (Xtype.rep (Xtype.ref_ "Book") Xtype.star)
  in
  Xschema.make ~root:"Store"
    [
      { Xschema.name = "Store"; body = store };
      { Xschema.name = "Book"; body = book };
      { Xschema.name = "Author"; body = author };
    ]

let books_doc =
  Xml.elem "store"
    [
      Xml.elem "book"
        ~attrs:[ ("isbn", "111") ]
        [
          Xml.leaf "title" "Types and Programming Languages";
          Xml.leaf "price" "90";
          Xml.elem "author" [ Xml.leaf "name" "Pierce" ];
          Xml.leaf "blurb" "the red book";
        ];
      Xml.elem "book"
        ~attrs:[ ("isbn", "222") ]
        [
          Xml.leaf "title" "Database Systems";
          Xml.leaf "price" "120";
          Xml.elem "author" [ Xml.leaf "name" "Garcia-Molina" ];
          Xml.elem "author" [ Xml.leaf "name" "Ullman" ];
          Xml.elem "author" [ Xml.leaf "name" "Widom" ];
        ];
    ]

let mapping_of schema =
  match Mapping.of_pschema schema with
  | Ok m -> m
  | Error es -> Alcotest.failf "mapping failed: %s" (String.concat "; " es)

let annotated_imdb =
  lazy (Annotate.schema Imdb.Stats.full Imdb.Schema.schema)

let small_imdb_doc = lazy (Imdb.Gen.generate Imdb.Gen.default)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The built-in workloads, and what the frozen beam loop makes of each
   from all-inlined on the full statistics: its result and every
   configuration it costed.  Shared by the beam pins and the
   fingerprint differential. *)
let builtin_workloads =
  [
    ("lookup", Imdb.Workloads.lookup);
    ("publish", Imdb.Workloads.publish);
    ("mixed 0.5", Imdb.Workloads.mixed 0.5);
  ]

let reference_beams =
  lazy
    (List.map
       (fun (name, workload) ->
         ( name,
           Beam_reference.beam
             (Cost_engine.create ~workload ())
             (Init.all_inlined (Lazy.force annotated_imdb)) ))
       builtin_workloads)
