// duo | topology distributed | model 960ba6608b2e
// generated by regforge; do not edit

module duo_frontend (
    input  logic cfg_clk,
    input  logic cfg_rst_n,
    input  logic [7:0] cfg_addr,
    input  logic [15:0] cfg_wdata,
    input  logic cfg_write,
    input  logic cfg_sel,
    output logic ready,
    input  logic busy,
    output logic [15:0] cfg_decim,
    output logic [11:0] cfg_mix_i,
    output logic [11:0] cfg_mix_q
);

    logic [15:0] decim_q;
    logic [11:0] mix_i_q;
    logic [11:0] mix_q_q;
    logic [2:0] busy_sync;

    always_ff @(posedge cfg_clk or negedge cfg_rst_n) begin
        if (!cfg_rst_n) begin
            decim_q <= 16'd0;
            mix_i_q <= 12'd0;
            mix_q_q <= 12'd0;
            busy_sync <= '0;
            ready <= 1'b0;
        end else begin
            busy_sync <= {busy_sync[1:0], busy};
            ready <= ~busy_sync[2];
            if (cfg_write && cfg_sel && ready) begin
                case (cfg_addr)
                    8'd0: decim_q <= cfg_wdata;
                    8'd1: mix_i_q <= cfg_wdata[11:0];
                    8'd2: mix_q_q <= cfg_wdata[11:0];
                    default: ;
                endcase
            end
        end
    end

    assign cfg_decim = decim_q;
    assign cfg_mix_i = mix_i_q;
    assign cfg_mix_q = mix_q_q;

endmodule
