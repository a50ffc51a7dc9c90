(** Local common-subexpression elimination within basic blocks.

    A later occurrence of an expression whose operands are untouched since
    an earlier occurrence is replaced by a copy from the earlier result.
    Works on full 64-bit values (see {!Exprs}), so it composes with the
    extension machinery: in particular, back-to-back [r = extend(r)]
    pairs collapse, since an extension is transparent to its own
    expression. *)

open Sxe_ir

let run (f : Cfg.func) =
  let changed = ref false in
  Cfg.iter_blocks
    (fun b ->
      (* expression key -> (register holding its value, operands, symbol) *)
      let avail : (Exprs.key, Instr.reg * Instr.reg list * string option) Hashtbl.t =
        Hashtbl.create 16
      in
      (* the keys each register holds or is an operand of, and the keys
         reading a global: the only candidates a kill has to check *)
      let by_reg : (Instr.reg, Exprs.key list) Hashtbl.t = Hashtbl.create 16 in
      let globals = ref [] in
      (* drop the killed entries among [keys]; the keys still available *)
      let kill (k : Exprs.killer) keys =
        List.filter
          (fun key ->
            match Hashtbl.find_opt avail key with
            | Some (holder, operands, sym)
              when k.kdef = Some holder || Exprs.kills k (key, operands, sym) ->
                Hashtbl.remove avail key;
                false
            | found -> found <> None)
          keys
      in
      let kept = ref [] and deleted_any = ref false in
      List.iter
        (fun (i : Instr.t) ->
          let expr = Exprs.of_op i.op in
          let deleted, expr =
            match expr with
            | Some (key, _, _) when Hashtbl.mem avail key -> (
                let src, _, _ = Hashtbl.find avail key in
                match i.op with
                | Instr.Sext _ | Instr.Zext _ ->
                    (* re-extending the same register is a no-op: drop it *)
                    changed := true;
                    (true, None)
                | _ -> (
                    match Instr.def i.op with
                    | Some dst when dst <> src ->
                        Cfg.set_op b i (Instr.Mov { dst; src; ty = Cfg.reg_ty f dst });
                        changed := true;
                        (false, None)
                    | _ -> (false, expr)))
            | _ -> (false, expr)
          in
          if deleted then deleted_any := true
          else begin
            kept := i :: !kept;
            (* invalidate: expressions killed by this instruction, and
               expressions whose holding register it overwrites *)
            let k = Exprs.killer i in
            (match k.kdef with
            | Some d ->
                let keys = Option.value ~default:[] (Hashtbl.find_opt by_reg d) in
                Hashtbl.replace by_reg d (kill k keys)
            | None -> ());
            if k.writes <> `Nothing then globals := kill k !globals;
            (* record the value this instruction now holds; an op whose
               destination is among its own operands (i = i + 1) computes
               from the pre-definition value and must not be recorded —
               except extensions, whose new register value equals the
               expression over itself *)
            match (expr, k.kdef) with
            | Some (key, operands, sym), Some d
              when (not (List.mem d operands)) || k.own <> None ->
                Hashtbl.replace avail key (d, operands, sym);
                List.iter
                  (fun r ->
                    Hashtbl.replace by_reg r
                      (key :: Option.value ~default:[] (Hashtbl.find_opt by_reg r)))
                  (d :: operands);
                if sym <> None then globals := key :: !globals
            | _ -> ()
          end)
        (Cfg.body b);
      if !deleted_any then Cfg.set_body b (List.rev !kept))
    f;
  !changed
