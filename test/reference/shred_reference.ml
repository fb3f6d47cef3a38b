(* Frozen reference: the shredder as it was before resolving each step
   once, kept verbatim apart from this comment, the [open] and the
   [Naming] module below.  The differential suite in test/test_load.ml
   holds {!Shred} to the same stored rows ([Storage.write_rows] bytes)
   or the same [Shred_error] on every document.  Do not "improve" this
   file. *)

open Legodb_mapping

(* The two column-name rules this file calls, copied verbatim from
   [Naming] as it was when the file was frozen; [Mapping.column] now
   names every data column and [Naming] no longer exports them. *)
module Naming = struct
  include Naming

  let data_col prefix ~root_tag =
    match prefix with
    | [] -> if root_tag = "" then "data" else root_tag
    | _ -> String.concat "_" prefix

  let tilde_col prefix ~root_tag:_ = String.concat "_" (prefix @ [ "tilde" ])
end

open Legodb_xml
open Legodb_xtype
open Legodb_relational

exception Shred_error of { path : string list; message : string }

let fail path fmt =
  Format.kasprintf (fun message -> raise (Shred_error { path; message })) fmt

type st = {
  db : Storage.t;
  m : Mapping.t;
  counters : (string, int ref) Hashtbl.t;
  mutable tick : int;  (* global document order, when the mapping asks *)
}

let fresh_id st ty =
  let r =
    match Hashtbl.find_opt st.counters ty with
    | Some r -> r
    | None ->
        let r = ref (Storage.row_count st.db ty) in
        Hashtbl.replace st.counters ty r;
        r
  in
  incr r;
  !r

type open_row = { o_ty : string; o_id : int; o_row : Storage.row }

let new_row st ty ~parent =
  let tbl = Rschema.table (Storage.catalog st.db) ty in
  let row = Array.make (List.length tbl.Rschema.columns) Rtype.V_null in
  let id = fresh_id st ty in
  row.(Storage.column_position st.db ~table:ty ~column:tbl.Rschema.key) <-
    Rtype.V_int id;
  if st.m.Mapping.ordered then begin
    st.tick <- st.tick + 1;
    row.(Storage.column_position st.db ~table:ty ~column:Naming.order_col) <-
      Rtype.V_int st.tick
  end;
  (match parent with
  | Some p ->
      let fk = Naming.fk_col p.o_ty in
      (match Storage.column_position st.db ~table:ty ~column:fk with
      | pos -> row.(pos) <- Rtype.V_int p.o_id
      | exception Not_found -> ())
  | None -> ());
  { o_ty = ty; o_id = id; o_row = row }

let set_col st path o column text =
  match Storage.column_position st.db ~table:o.o_ty ~column with
  | exception Not_found ->
      fail path "internal: no column %s.%s" o.o_ty column
  | pos ->
      let tbl = Rschema.table (Storage.catalog st.db) o.o_ty in
      let col = Rschema.column tbl column in
      let v =
        match col.Rschema.ctype with
        | Rtype.R_int -> (
            let cleaned =
              String.to_seq (String.trim text)
              |> Seq.filter (fun c -> c <> ',')
              |> String.of_seq
            in
            match int_of_string_opt cleaned with
            | Some n -> Rtype.V_int n
            | None -> fail path "value %S is not an integer" text)
        | Rtype.R_string _ -> Rtype.V_string text
      in
      o.o_row.(pos) <- v

let insert st o = Storage.insert st.db o.o_ty o.o_row

(* one-level structural lookahead used to pick among candidates *)
let accepts st (found : Navigate.found) (child : Xml.t) =
  let text_only =
    List.for_all
      (function Xml.Text _ -> true | Xml.Element _ -> false)
      (Xml.children child)
  in
  match found with
  | Navigate.F_column _ | Navigate.F_wild _ -> text_only
  | Navigate.F_elem { place; _ } ->
      let ok_step s = Navigate.navigate st.m place s <> [] in
      List.for_all (fun (n, _) -> ok_step n) (Xml.attributes child)
      && List.for_all
           (function
             | Xml.Element (tag, _, _) -> ok_step tag
             | Xml.Text s -> String.trim s = "")
           (Xml.children child)

let pick_candidate st path founds child =
  match founds with
  | [] -> fail path "no storage location for element <%s>" (Option.value ~default:"?" (Xml.tag child))
  | [ f ] -> f
  | fs -> (
      match List.find_opt (fun f -> accepts st f child) fs with
      | Some f -> f
      | None -> List.hd fs)

(* Is the (non-transparent) type's body rooted in an element?  If so a
   fresh row is created per occurrence; otherwise the type's content is
   spliced into its parent element and one cached row is shared. *)
let element_rooted st ty =
  match Xschema.find_opt st.m.Mapping.schema ty with
  | Some (Xtype.Elem _) -> true
  | Some _ | None -> false

let wildcard_rooted st ty =
  match Xschema.find_opt st.m.Mapping.schema ty with
  | Some (Xtype.Elem { label = Label.Any | Label.Any_except _; _ }) -> true
  | Some _ | None -> false

let rec fill st path (o : open_row) (place : Navigate.place) node =
  (* rows of spliced chains created while filling this element *)
  let cache : (string list, open_row) Hashtbl.t = Hashtbl.create 4 in
  let spliced = ref [] in
  let rec chain_row hops_done anchor hops ~fresh_last =
    match hops with
    | [] -> anchor
    | ty :: rest ->
        let key = hops_done @ [ ty ] in
        let is_last = rest = [] in
        if is_last && fresh_last then new_row st ty ~parent:(Some anchor)
        else (
          match Hashtbl.find_opt cache key with
          | Some r -> chain_row key r rest ~fresh_last
          | None ->
              let r = new_row st ty ~parent:(Some anchor) in
              Hashtbl.replace cache key r;
              spliced := r :: !spliced;
              chain_row key r rest ~fresh_last)
  in
  let handle_scalar found text path' =
    match found with
    | Navigate.F_column { hops; column; _ } ->
        let fresh_last = hops <> [] && element_rooted st (List.nth hops (List.length hops - 1)) in
        let target = chain_row [] o hops ~fresh_last in
        set_col st path' target column text;
        if fresh_last then insert st target
    | Navigate.F_wild { hops; tilde; data; tag; _ } ->
        let fresh_last = hops <> [] && element_rooted st (List.nth hops (List.length hops - 1)) in
        let target = chain_row [] o hops ~fresh_last in
        set_col st path' target tilde tag;
        set_col st path' target data text;
        if fresh_last then insert st target
    | Navigate.F_elem _ -> fail path' "expected scalar storage"
  in
  (* attributes *)
  List.iter
    (fun (n, v) ->
      match Navigate.navigate st.m place n with
      | [] -> fail path "no storage location for attribute @%s" n
      | found :: _ -> handle_scalar found v (path @ [ "@" ^ n ]))
    (Xml.attributes node);
  (* children *)
  List.iter
    (fun child ->
      match child with
      | Xml.Text s ->
          if String.trim s <> "" then
            (* scalar content of the current element *)
            let root_tag =
              match Xschema.find_opt st.m.Mapping.schema place.ty with
              | Some (Xtype.Elem e) -> Label.column_name e.Xtype.label
              | _ -> ""
            in
            set_col st path o (Naming.data_col place.prefix ~root_tag) s
      | Xml.Element (tag, _, _) -> (
          let path' = path @ [ tag ] in
          let founds = Navigate.navigate st.m place tag in
          let found = pick_candidate st path' founds child in
          match found with
          | Navigate.F_column _ | Navigate.F_wild _ ->
              handle_scalar found (Xml.text_content child) path'
          | Navigate.F_elem { hops; place = place' } ->
              (* a structured wildcard element stores its concrete tag in
                 the tilde column *)
              let store_tag target =
                if hops = [] then begin
                  match List.rev place'.Navigate.prefix with
                  | "tilde" :: rev_parent ->
                      let root_tag =
                        match Xschema.find_opt st.m.Mapping.schema place'.Navigate.ty with
                        | Some (Xtype.Elem e) -> Label.column_name e.Xtype.label
                        | _ -> ""
                      in
                      set_col st path' target
                        (Naming.tilde_col (List.rev rev_parent) ~root_tag)
                        tag
                  | _ -> ()
                end
                else if wildcard_rooted st (List.nth hops (List.length hops - 1))
                then
                  set_col st path' target
                    (Naming.tilde_col [] ~root_tag:"tilde")
                    tag
              in
              if hops = [] then begin
                store_tag o;
                fill st path' o place' child
              end
              else begin
                let fresh_last =
                  element_rooted st (List.nth hops (List.length hops - 1))
                in
                let target = chain_row [] o hops ~fresh_last in
                store_tag target;
                fill st path' target place' child;
                if fresh_last then insert st target
              end))
    (Xml.children node);
  List.iter (insert st) !spliced

let shred_into db m doc =
  let st = { db; m; counters = Hashtbl.create 16; tick = Storage.total_rows db } in
  let root_tag = match Xml.tag doc with Some t -> t | None -> "" in
  match Navigate.enter_root m root_tag with
  | [] -> fail [ root_tag ] "document root <%s> does not match the schema" root_tag
  | founds -> (
      match pick_candidate st [ root_tag ] founds doc with
      | Navigate.F_elem { hops; place } ->
          (* materialize the chain from nothing: first hop has no parent *)
          let rec build parent created hops =
            match hops with
            | [] -> (parent, List.rev created)
            | ty :: rest ->
                let r = new_row st ty ~parent in
                build (Some r) (r :: created) rest
          in
          (match build None [] hops with
          | Some o, created ->
              if wildcard_rooted st o.o_ty then
                set_col st [ root_tag ] o
                  (Naming.tilde_col [] ~root_tag:"tilde")
                  root_tag;
              fill st [ root_tag ] o place doc;
              List.iter (insert st) created
          | None, _ -> fail [ root_tag ] "empty storage chain for the root")
      | Navigate.F_column _ | Navigate.F_wild _ ->
          fail [ root_tag ] "document root resolves to a scalar")

let shred m doc =
  let db = Storage.create m.Mapping.catalog in
  shred_into db m doc;
  db
