// duo | topology distributed | model 960ba6608b2e
// generated by regforge; do not edit

module duo_backend (
    input  logic cfg_clk,
    input  logic cfg_rst_n,
    input  logic [7:0] cfg_addr,
    input  logic [15:0] cfg_wdata,
    input  logic cfg_write,
    input  logic cfg_sel,
    output logic ready,
    input  logic busy,
    output logic [3:0] cfg_mode
);

    logic [3:0] mode_q;
    logic [2:0] busy_sync;

    always_ff @(posedge cfg_clk or negedge cfg_rst_n) begin
        if (!cfg_rst_n) begin
            mode_q <= 4'd12;
            busy_sync <= '0;
            ready <= 1'b0;
        end else begin
            busy_sync <= {busy_sync[1:0], busy};
            ready <= ~busy_sync[2];
            if (cfg_write && cfg_sel && ready) begin
                case (cfg_addr)
                    8'd128: mode_q <= cfg_wdata[3:0];
                    default: ;
                endcase
            end
        end
    end

    assign cfg_mode = mode_q;

endmodule
